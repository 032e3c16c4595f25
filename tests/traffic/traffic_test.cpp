#include "traffic/traffic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace wrt::traffic {
namespace {

FlowSpec cbr_spec(double period = 10.0) {
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 1;
  spec.cls = TrafficClass::kRealTime;
  spec.kind = ArrivalKind::kCbr;
  spec.period_slots = period;
  spec.deadline_slots = 50;
  return spec;
}

TEST(TrafficSource, CbrArrivalsAreEvenlySpaced) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(100), packets);
  ASSERT_EQ(packets.size(), 11u);  // slots 0, 10, ..., 100
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].created - packets[i - 1].created, slots_to_ticks(10));
  }
}

TEST(TrafficSource, CbrStartSlotOffset) {
  FlowSpec spec = cbr_spec(10.0);
  spec.start_slot = 25;
  TrafficSource source(spec, 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(24), packets);
  EXPECT_TRUE(packets.empty());
  source.poll(slots_to_ticks(25), packets);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].created, slots_to_ticks(25));
}

TEST(TrafficSource, DeadlineStampedRelative) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(10), packets);
  ASSERT_GE(packets.size(), 1u);
  EXPECT_EQ(packets[0].deadline, packets[0].created + slots_to_ticks(50));
}

TEST(TrafficSource, BestEffortHasNoDeadline) {
  FlowSpec spec = cbr_spec(10.0);
  spec.cls = TrafficClass::kBestEffort;
  TrafficSource source(spec, 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(10), packets);
  ASSERT_GE(packets.size(), 1u);
  EXPECT_EQ(packets[0].deadline, kNeverTick);
}

TEST(TrafficSource, SequencesAreMonotonic) {
  TrafficSource source(cbr_spec(5.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(200), packets);
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].sequence, packets[i - 1].sequence + 1);
  }
}

TEST(TrafficSource, PollIsIncremental) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> first, second;
  source.poll(slots_to_ticks(50), first);
  source.poll(slots_to_ticks(100), second);
  EXPECT_EQ(first.size() + second.size(), 11u);
  EXPECT_GT(second.front().created, first.back().created);
}

TEST(TrafficSource, PoissonMeanRate) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_slot = 0.25;
  TrafficSource source(spec, 99);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(100000), packets);
  EXPECT_NEAR(static_cast<double>(packets.size()) / 100000.0, 0.25, 0.01);
}

TEST(TrafficSource, PoissonDeterministicPerSeed) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_slot = 0.1;
  TrafficSource a(spec, 5), b(spec, 5);
  std::vector<Packet> pa, pb;
  a.poll(slots_to_ticks(1000), pa);
  b.poll(slots_to_ticks(1000), pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].created, pb[i].created);
  }
}

TEST(TrafficSource, OnOffDutyCycleReducesRate) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kOnOff;
  spec.rate_per_slot = 0.5;
  spec.on_mean_slots = 100.0;
  spec.off_mean_slots = 300.0;  // 25% duty cycle
  TrafficSource source(spec, 17);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(200000), packets);
  const double measured = static_cast<double>(packets.size()) / 200000.0;
  EXPECT_NEAR(measured, 0.125, 0.03);
}

TEST(FlowSpec, OfferedLoadFormulas) {
  FlowSpec cbr = cbr_spec(20.0);
  EXPECT_DOUBLE_EQ(cbr.offered_load(), 0.05);
  FlowSpec poisson = cbr_spec();
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate_per_slot = 0.3;
  EXPECT_DOUBLE_EQ(poisson.offered_load(), 0.3);
  FlowSpec onoff = cbr_spec();
  onoff.kind = ArrivalKind::kOnOff;
  onoff.rate_per_slot = 0.4;
  onoff.on_mean_slots = 100.0;
  onoff.off_mean_slots = 100.0;
  EXPECT_DOUBLE_EQ(onoff.offered_load(), 0.2);
}

TEST(SaturatedSource, ProducesRequestedCount) {
  SaturatedSource source(cbr_spec());
  std::vector<Packet> packets;
  source.take_into(slots_to_ticks(7), 5, packets);
  ASSERT_EQ(packets.size(), 5u);
  for (const auto& p : packets) {
    EXPECT_EQ(p.created, slots_to_ticks(7));
    EXPECT_EQ(p.cls, TrafficClass::kRealTime);
  }
  EXPECT_EQ(packets[4].sequence, 4u);
}

TEST(SaturatedSource, TakeIntoAppends) {
  SaturatedSource source(cbr_spec());
  std::vector<Packet> packets(2);
  source.take_into(slots_to_ticks(3), 3, packets);
  ASSERT_EQ(packets.size(), 5u);
  EXPECT_EQ(packets[2].sequence, 0u);
  EXPECT_EQ(packets[4].sequence, 2u);
  EXPECT_EQ(packets[4].created, slots_to_ticks(3));
}

/// Polls `source` at every tick of the first `slots` slots.
template <typename Source>
std::vector<Packet> poll_each_tick(Source& source, std::int64_t slots) {
  std::vector<Packet> out;
  for (Tick now = 0; now <= slots_to_ticks(slots); ++now) {
    source.poll(now, out);
  }
  return out;
}

void expect_never_due(const FlowSpec& spec) {
  TrafficSource source(spec, 3);
  EXPECT_EQ(source.next_arrival(), kNeverTick);
  EXPECT_FALSE(spec.emits());
  EXPECT_EQ(spec.offered_load(), 0.0);
  EXPECT_TRUE(poll_each_tick(source, 10).empty());
  EXPECT_EQ(source.next_arrival(), kNeverTick);
}

TEST(TrafficSource, NonPositiveCbrPeriodNeverArrives) {
  for (const double period :
       {0.0, -4.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(period);
    expect_never_due(cbr_spec(period));
  }
}

TEST(TrafficSource, NonPositivePoissonRateNeverArrives) {
  for (const double rate :
       {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(rate);
    FlowSpec spec = cbr_spec();
    spec.kind = ArrivalKind::kPoisson;
    spec.rate_per_slot = rate;
    expect_never_due(spec);
  }
}

TEST(TrafficSource, DegenerateOnOffNeverArrives) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double rate, on_mean, off_mean;
  };
  for (const Case c : {Case{0.0, 100.0, 100.0}, Case{-1.0, 100.0, 100.0},
                       Case{nan, 100.0, 100.0}, Case{0.5, 0.0, 100.0},
                       Case{0.5, inf, 100.0}, Case{0.5, 100.0, nan},
                       Case{0.5, 100.0, -1.0}}) {
    SCOPED_TRACE(testing::Message() << c.rate << " " << c.on_mean << " "
                                    << c.off_mean);
    FlowSpec spec = cbr_spec();
    spec.kind = ArrivalKind::kOnOff;
    spec.rate_per_slot = c.rate;
    spec.on_mean_slots = c.on_mean;
    spec.off_mean_slots = c.off_mean;
    expect_never_due(spec);
  }
}

TEST(TrafficSource, NextArrivalIsTheNextPacketsCreationTick) {
  FlowSpec spec = cbr_spec(10.0);
  spec.start_slot = 4;
  TrafficSource source(spec, 1);
  EXPECT_EQ(source.next_arrival(), slots_to_ticks(4));
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(4) - 1, packets);
  EXPECT_TRUE(packets.empty());
  source.poll(slots_to_ticks(4), packets);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(source.next_arrival(), slots_to_ticks(14));
}

/// Polling every tick and polling only when `now >= next_arrival()` must
/// produce the same packet sequence: the no-op contract the arrival
/// schedule relies on.
void expect_due_polling_matches(const FlowSpec& spec) {
  TrafficSource every(spec, 11);
  TrafficSource due_only(spec, 11);
  const std::vector<Packet> expected = poll_each_tick(every, 400);
  std::vector<Packet> got;
  for (Tick now = 0; now <= slots_to_ticks(400); ++now) {
    if (now >= due_only.next_arrival()) due_only.poll(now, got);
    EXPECT_GT(due_only.next_arrival(), now);
  }
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_FALSE(expected.empty());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].created, expected[i].created) << i;
    EXPECT_EQ(got[i].sequence, expected[i].sequence) << i;
    EXPECT_EQ(got[i].deadline, expected[i].deadline) << i;
  }
  EXPECT_EQ(due_only.next_arrival(), every.next_arrival());
}

TEST(TrafficSource, DuePollingMatchesEveryTickPolling) {
  FlowSpec cbr = cbr_spec(7.3);
  cbr.start_slot = 3;
  expect_due_polling_matches(cbr);
  FlowSpec poisson = cbr_spec();
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate_per_slot = 0.2;
  expect_due_polling_matches(poisson);
  FlowSpec onoff = cbr_spec();
  onoff.kind = ArrivalKind::kOnOff;
  onoff.rate_per_slot = 0.5;
  onoff.on_mean_slots = 20.0;
  onoff.off_mean_slots = 30.0;
  expect_due_polling_matches(onoff);
}

TEST(Sink, RecordsDelayAndClass) {
  Sink sink;
  Packet p;
  p.flow = 3;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(4));
  const auto& rt = sink.by_class(TrafficClass::kRealTime);
  EXPECT_EQ(rt.delivered, 1u);
  EXPECT_EQ(rt.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(rt.delay_slots.mean(), 4.0);
}

TEST(Sink, CountsDeadlineMisses) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(11));
  EXPECT_EQ(sink.by_class(TrafficClass::kRealTime).deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(sink.rt_miss_ratio(), 1.0);
}

TEST(Sink, MissRatioCombinesDropsAndMisses) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(5));   // on time
  sink.record_delivery(p, slots_to_ticks(20));  // late
  sink.record_drop(p);                          // dropped
  EXPECT_NEAR(sink.rt_miss_ratio(), 2.0 / 3.0, 1e-9);
}

TEST(Sink, ThroughputPerSlot) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kBestEffort;
  for (int i = 0; i < 50; ++i) sink.record_delivery(p, slots_to_ticks(i));
  EXPECT_DOUBLE_EQ(sink.throughput(0, slots_to_ticks(100)), 0.5);
}

TEST(Sink, PerFlowStats) {
  Sink sink;
  Packet a;
  a.flow = 1;
  a.created = 0;
  Packet b;
  b.flow = 2;
  b.created = 0;
  sink.record_delivery(a, slots_to_ticks(2));
  sink.record_delivery(b, slots_to_ticks(8));
  ASSERT_EQ(sink.per_flow().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.per_flow().at(1).mean(), 2.0);
  EXPECT_DOUBLE_EQ(sink.per_flow().at(2).mean(), 8.0);
}

TEST(Sink, EmptyMissRatioIsZero) {
  const Sink sink;
  EXPECT_DOUBLE_EQ(sink.rt_miss_ratio(), 0.0);
}

TEST(Sink, PerFlowCountsTrackMissesAndDrops) {
  Sink sink;
  Packet a;
  a.flow = 1;
  a.cls = TrafficClass::kRealTime;
  a.created = 0;
  a.deadline = slots_to_ticks(10);
  Packet b;
  b.flow = 2;
  b.cls = TrafficClass::kRealTime;
  b.created = 0;
  b.deadline = slots_to_ticks(10);
  sink.record_delivery(a, slots_to_ticks(5));   // on time: no entry for flow 1
  sink.record_delivery(b, slots_to_ticks(20));  // late
  sink.record_drop(b);
  sink.record_drop(b);
  // Clean flows have no entry at all (counters are touched only on the
  // miss/drop paths).
  EXPECT_FALSE(sink.per_flow_counts().contains(1));
  ASSERT_TRUE(sink.per_flow_counts().contains(2));
  EXPECT_EQ(sink.per_flow_counts().at(2).deadline_misses, 1u);
  EXPECT_EQ(sink.per_flow_counts().at(2).dropped, 2u);
}

TEST(Sink, PerFlowStatsOfUnseenFlowAreAbsent) {
  // A flow that never delivered has no per_flow() entry; callers scoring a
  // call must treat "absent" as an empty (all-zero) distribution.
  const Sink sink;
  EXPECT_TRUE(sink.per_flow().empty());
  EXPECT_TRUE(sink.per_flow_counts().empty());
}

}  // namespace
}  // namespace wrt::traffic
