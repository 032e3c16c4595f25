#include "traffic/arrival_schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace wrt::traffic {
namespace {

FlowSpec spec_of(FlowId id, ArrivalKind kind, std::int64_t start_slot = 0) {
  FlowSpec spec;
  spec.id = id;
  spec.src = static_cast<NodeId>(id);
  spec.dst = 0;
  spec.kind = kind;
  spec.period_slots = 6.5 + static_cast<double>(id);
  spec.rate_per_slot = 0.07 * static_cast<double>(id);
  spec.on_mean_slots = 30.0;
  spec.off_mean_slots = 45.0;
  spec.start_slot = start_slot;
  return spec;
}

struct Arrival {
  NodeId station;
  FlowId flow;
  std::uint64_t sequence;
  Tick created;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Runs `schedule` slot by slot and records every arrival it reports.
std::vector<Arrival> drain(ArrivalSchedule& schedule, std::int64_t slots) {
  std::vector<Arrival> out;
  std::vector<Packet> scratch;
  for (std::int64_t slot = 0; slot <= slots; ++slot) {
    schedule.poll(slots_to_ticks(slot), scratch,
                  [&out](NodeId station, std::vector<Packet>& packets) {
                    for (const Packet& p : packets) {
                      out.push_back({station, p.flow, p.sequence, p.created});
                    }
                  });
  }
  return out;
}

TEST(ArrivalSchedule, MatchesPollingEverySourceEverySlot) {
  const Trace voice =
      make_voice_trace(VoiceParams{}, slots_to_ticks(3000), 5);
  const Trace video = make_gop_trace(GopParams{}, 80, slots_to_ticks(7));

  ArrivalSchedule schedule;
  std::vector<std::pair<TrafficSource, NodeId>> rates;
  std::vector<std::pair<TraceSource, NodeId>> traces;
  const auto add_rate = [&](const FlowSpec& spec, NodeId station) {
    schedule.add(TrafficSource(spec, 99 + spec.id), station);
    rates.emplace_back(TrafficSource(spec, 99 + spec.id), station);
  };
  const auto add_trace = [&](const Trace& trace, FlowId flow, NodeId station) {
    schedule.add(TraceSource(trace, flow, station, 0), station);
    traces.emplace_back(TraceSource(trace, flow, station, 0), station);
  };
  // Adds interleave kinds; polling must still visit rates, then traces.
  add_trace(voice, 20, 7);
  add_rate(spec_of(1, ArrivalKind::kCbr, 2), 1);
  add_rate(spec_of(2, ArrivalKind::kPoisson), 2);
  add_trace(video, 21, 8);
  add_rate(spec_of(3, ArrivalKind::kOnOff, 10), 3);
  add_rate(spec_of(4, ArrivalKind::kCbr, 1), 1);  // second source, station 1
  FlowSpec silent = spec_of(5, ArrivalKind::kPoisson);
  silent.rate_per_slot = 0.0;
  add_rate(silent, 5);

  std::vector<Arrival> expected;
  std::vector<Packet> scratch;
  for (std::int64_t slot = 0; slot <= 3000; ++slot) {
    const Tick now = slots_to_ticks(slot);
    const auto visit = [&](auto& source, NodeId station) {
      scratch.clear();
      source.poll(now, scratch);
      for (const Packet& p : scratch) {
        expected.push_back({station, p.flow, p.sequence, p.created});
      }
    };
    for (auto& [source, station] : rates) visit(source, station);
    for (auto& [source, station] : traces) visit(source, station);
  }
  const std::vector<Arrival> got = drain(schedule, 3000);
  ASSERT_GT(expected.size(), 500u);
  EXPECT_EQ(got, expected);
}

TEST(ArrivalSchedule, NextDueIsTheEarliestSourceTick) {
  ArrivalSchedule schedule;
  EXPECT_EQ(schedule.next_due(), kNeverTick);
  schedule.add(TrafficSource(spec_of(1, ArrivalKind::kCbr, 12), 1), 1);
  EXPECT_EQ(schedule.next_due(), slots_to_ticks(12));
  schedule.add(TraceSource(Trace({{slots_to_ticks(5), TrafficClass::kRealTime,
                                   1}}),
                           2, 2, 0),
               2);
  EXPECT_EQ(schedule.next_due(), slots_to_ticks(5));

  std::vector<Packet> scratch;
  int calls = 0;
  const auto count = [&calls](NodeId, std::vector<Packet>&) { ++calls; };
  schedule.poll(slots_to_ticks(4), scratch, count);
  EXPECT_EQ(calls, 0);
  schedule.poll(slots_to_ticks(5), scratch, count);
  EXPECT_EQ(calls, 1);
  // The trace is spent; the CBR flow is next.
  EXPECT_EQ(schedule.next_due(), slots_to_ticks(12));
}

TEST(ArrivalSchedule, NeverDueSourcesAreNeverVisited) {
  ArrivalSchedule schedule;
  FlowSpec spec = spec_of(1, ArrivalKind::kCbr);
  spec.period_slots = 0.0;
  schedule.add(TrafficSource(spec, 1), 1);
  schedule.add(TraceSource(Trace(), 2, 2, 0), 2);
  EXPECT_EQ(schedule.next_due(), kNeverTick);
  ArrivalSchedule copy = schedule;
  EXPECT_TRUE(drain(copy, 50).empty());
}

TEST(ArrivalSchedule, SourceAddedAfterItsStartCatchesUpAtOnce) {
  ArrivalSchedule schedule;
  schedule.add(TrafficSource(spec_of(1, ArrivalKind::kCbr, 0), 1), 1);
  std::vector<Packet> scratch;
  std::vector<Arrival> seen;
  const auto record = [&seen](NodeId station, std::vector<Packet>& packets) {
    for (const Packet& p : packets) {
      seen.push_back({station, p.flow, p.sequence, p.created});
    }
  };
  schedule.poll(slots_to_ticks(100), scratch, record);
  seen.clear();
  FlowSpec late = spec_of(3, ArrivalKind::kCbr, 40);
  late.period_slots = 10.0;
  schedule.add(TrafficSource(late, 7), 3);
  EXPECT_EQ(schedule.next_due(), slots_to_ticks(40));
  schedule.poll(slots_to_ticks(101), scratch, record);
  // Slots 40, 50, ..., 100 arrive in the first poll after the add.
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.front().created, slots_to_ticks(40));
  EXPECT_EQ(seen.back().created, slots_to_ticks(100));
  EXPECT_EQ(seen.back().station, 3u);
  // Flow 1 (period 7.5) is due again at slot 105, before the late one.
  EXPECT_EQ(schedule.next_due(), slots_to_ticks(105));
}

}  // namespace
}  // namespace wrt::traffic
