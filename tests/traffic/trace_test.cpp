#include "traffic/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace wrt::traffic {
namespace {

TEST(Trace, RecordFromCbrSource) {
  FlowSpec spec;
  spec.id = 1;
  spec.kind = ArrivalKind::kCbr;
  spec.period_slots = 10.0;
  TrafficSource source(spec, 1);
  const Trace trace = Trace::record(source, slots_to_ticks(100));
  EXPECT_EQ(trace.total_packets(), 11u);
  EXPECT_NEAR(trace.offered_load(), 0.11, 0.02);
}

TEST(TraceSource, NextArrivalFollowsTheCursor) {
  TraceSource source(Trace({{slots_to_ticks(2), TrafficClass::kRealTime, 2},
                            {slots_to_ticks(9), TrafficClass::kBestEffort, 1}}),
                     4, 0, 1);
  EXPECT_EQ(source.next_arrival(), slots_to_ticks(2));
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(2) - 1, packets);
  EXPECT_TRUE(packets.empty());
  source.poll(slots_to_ticks(5), packets);
  EXPECT_EQ(packets.size(), 2u);
  EXPECT_EQ(source.next_arrival(), slots_to_ticks(9));
  source.poll(slots_to_ticks(9), packets);
  EXPECT_EQ(packets.size(), 3u);
  EXPECT_EQ(source.next_arrival(), kNeverTick);
  EXPECT_EQ(TraceSource(Trace(), 1, 0, 1).next_arrival(), kNeverTick);
}

TEST(TraceSource, DuePollingMatchesEveryTickPolling) {
  const Trace trace = make_voice_trace(VoiceParams{}, slots_to_ticks(5000), 9);
  TraceSource every(trace, 1, 0, 1, 40);
  TraceSource due_only(trace, 1, 0, 1, 40);
  std::vector<Packet> expected;
  std::vector<Packet> got;
  for (Tick now = 0; now <= slots_to_ticks(5000); ++now) {
    every.poll(now, expected);
    if (now >= due_only.next_arrival()) due_only.poll(now, got);
    EXPECT_GT(due_only.next_arrival(), now);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].created, expected[i].created) << i;
    EXPECT_EQ(got[i].sequence, expected[i].sequence) << i;
    EXPECT_EQ(got[i].deadline, expected[i].deadline) << i;
  }
}

TEST(Trace, MergeKeepsTimeOrder) {
  Trace a({{slots_to_ticks(1), TrafficClass::kRealTime, 1},
           {slots_to_ticks(5), TrafficClass::kRealTime, 1}});
  Trace b({{slots_to_ticks(3), TrafficClass::kBestEffort, 2}});
  const Trace merged = Trace::merge(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.entries()[0].at, slots_to_ticks(1));
  EXPECT_EQ(merged.entries()[1].at, slots_to_ticks(3));
  EXPECT_EQ(merged.entries()[2].at, slots_to_ticks(5));
  EXPECT_EQ(merged.total_packets(), 4u);
}

TEST(TraceSource, ReplaysExactly) {
  Trace trace({{slots_to_ticks(2), TrafficClass::kRealTime, 2},
               {slots_to_ticks(7), TrafficClass::kBestEffort, 1}});
  TraceSource source(trace, 9, 0, 3, 50);
  std::vector<Packet> out;
  source.poll(slots_to_ticks(1), out);
  EXPECT_TRUE(out.empty());
  source.poll(slots_to_ticks(2), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].cls, TrafficClass::kRealTime);
  EXPECT_EQ(out[0].deadline, slots_to_ticks(2) + slots_to_ticks(50));
  EXPECT_EQ(out[0].flow, 9u);
  out.clear();
  source.poll(slots_to_ticks(100), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cls, TrafficClass::kBestEffort);
  EXPECT_EQ(out[0].deadline, kNeverTick);  // BE carries no deadline
  EXPECT_TRUE(source.exhausted());
}

TEST(TraceSource, SequenceNumbersAcrossBursts) {
  Trace trace({{0, TrafficClass::kRealTime, 3}});
  TraceSource source(trace, 1, 0, 1);
  std::vector<Packet> out;
  source.poll(slots_to_ticks(1), out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].sequence, 0u);
  EXPECT_EQ(out[2].sequence, 2u);
}

TEST(GopTrace, PatternSizes) {
  GopParams params;
  params.frame_period_slots = 10;
  params.gop_length = 4;
  params.i_frame_packets = 8;
  params.p_frame_packets = 3;
  params.b_frame_packets = 1;
  params.p_spacing = 2;
  const Trace trace = make_gop_trace(params, 8);
  ASSERT_EQ(trace.size(), 8u);
  // Frames 0 and 4 are I; frames 2 and 6 are P; the rest are B.
  EXPECT_EQ(trace.entries()[0].packets, 8u);
  EXPECT_EQ(trace.entries()[1].packets, 1u);
  EXPECT_EQ(trace.entries()[2].packets, 3u);
  EXPECT_EQ(trace.entries()[4].packets, 8u);
  // Frame spacing is the frame period.
  EXPECT_EQ(trace.entries()[1].at - trace.entries()[0].at,
            slots_to_ticks(10));
  // All frames are real-time.
  for (const auto& entry : trace.entries()) {
    EXPECT_EQ(entry.cls, TrafficClass::kRealTime);
  }
}

TEST(GopTrace, MeanRateMatchesPattern) {
  GopParams params;  // defaults: GOP 12 = 1 I(8) + 3 P(3) + 8 B(1)
  const Trace trace = make_gop_trace(params, 120);
  // Packets per GOP: 8 + 3*3 + 8*1 = 25 over 12 frames * 33 slots.
  const double expected = 25.0 / (12.0 * 33.0);
  EXPECT_NEAR(trace.offered_load(), expected, expected * 0.15);
}

TEST(VoiceTrace, RespectsPacketisationInterval) {
  VoiceParams params;
  params.packet_period_slots = 20;
  const Trace trace = make_voice_trace(params, slots_to_ticks(50000), 3);
  ASSERT_GT(trace.size(), 10u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    // Consecutive packets are at least one packetisation interval apart.
    EXPECT_GE(trace.entries()[i].at - trace.entries()[i - 1].at,
              slots_to_ticks(20));
  }
}

TEST(VoiceTrace, DutyCycleBelowOne) {
  VoiceParams params;
  const Trace trace = make_voice_trace(params, slots_to_ticks(200000), 5);
  // Full-rate load would be 1/20 = 0.05; talkspurts cover ~43% of time.
  EXPECT_LT(trace.offered_load(), 0.05);
  EXPECT_GT(trace.offered_load(), 0.005);
}

TEST(VoiceTrace, DeterministicPerSeed) {
  VoiceParams params;
  const Trace a = make_voice_trace(params, slots_to_ticks(30000), 9);
  const Trace b = make_voice_trace(params, slots_to_ticks(30000), 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].at, b.entries()[i].at);
  }
}

TEST(Trace, EmptyTraceSafe) {
  const Trace empty;
  EXPECT_EQ(empty.total_packets(), 0u);
  EXPECT_DOUBLE_EQ(empty.offered_load(), 0.0);
  TraceSource source(empty, 1, 0, 1);
  EXPECT_TRUE(source.exhausted());
}

}  // namespace
}  // namespace wrt::traffic
