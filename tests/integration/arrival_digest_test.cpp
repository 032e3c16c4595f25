// Arrival-path digests: the three MAC engines driven by rate-limited and
// trace sources instead of saturated ones.
//
// SoaDigest, AlohaDigest and the hot-path bench --digest keep every queue
// topped up, so they never see when a CBR, Poisson, on/off or trace packet
// is generated.  Each case here runs one fixed-seed scenario that does:
// every arrival kind, two sources on one station, a source added mid-run
// whose start slot has already passed, and a membership change (a WRT
// station that leaves and rejoins, an ALOHA and a TPT station that die, so
// their arrivals take the drop path).  The per-flow outcome — delivered
// count, delay sum/min/max, deadline misses and drops — is reduced to one
// FNV-1a value; any change in which packet arrives when, at which station,
// shows up as a mismatch.
//
// Regenerating after a *deliberate* change to arrival generation:
//   WRT_DIGEST_CAPTURE=1 ./test_integration --gtest_filter='ArrivalDigest*'
// prints the new values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "aloha/engine.hpp"
#include "phy/topology.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "tpt/engine.hpp"
#include "traffic/trace.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void mix_sink(Fnv& h, const traffic::Sink& sink) {
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kBestEffort}) {
    const auto& stats = sink.by_class(cls);
    h.mix(stats.delivered);
    h.mix(stats.deadline_misses);
    h.mix(stats.dropped);
  }
  h.mix(static_cast<std::uint64_t>(sink.per_flow().size()));
  for (const auto& [flow, delay] : sink.per_flow()) {
    h.mix(static_cast<std::uint64_t>(flow));
    h.mix(delay.count());
    h.mix(delay.sum());
    h.mix(delay.min());
    h.mix(delay.max());
  }
  h.mix(static_cast<std::uint64_t>(sink.per_flow_counts().size()));
  for (const auto& [flow, counts] : sink.per_flow_counts()) {
    h.mix(static_cast<std::uint64_t>(flow));
    h.mix(counts.deadline_misses);
    h.mix(counts.dropped);
  }
}

traffic::FlowSpec flow(FlowId id, NodeId src, NodeId dst,
                       traffic::ArrivalKind kind, TrafficClass cls) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.kind = kind;
  spec.cls = cls;
  spec.deadline_slots = cls == TrafficClass::kRealTime ? 400 : 0;
  return spec;
}

/// The shared flow mix on `n` stations: CBR with a non-integer period,
/// Poisson, on/off bursts, a video GOP trace and a voice trace, with
/// station 2 carrying both a CBR and a Poisson flow.
template <typename EngineT>
void attach_mix(EngineT& engine, std::size_t n) {
  const auto opposite = [n](NodeId node) {
    return static_cast<NodeId>((node + n / 2) % n);
  };
  FlowId id = 1;
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    switch (node % 4) {
      case 0:
        spec = flow(id++, node, opposite(node), traffic::ArrivalKind::kCbr,
                    TrafficClass::kRealTime);
        spec.period_slots = 12.5 + node;
        spec.start_slot = node;
        break;
      case 1:
        spec = flow(id++, node, opposite(node),
                    traffic::ArrivalKind::kPoisson,
                    TrafficClass::kBestEffort);
        spec.rate_per_slot = 0.05;
        break;
      case 2:
        spec = flow(id++, node, opposite(node), traffic::ArrivalKind::kOnOff,
                    TrafficClass::kRealTime);
        spec.rate_per_slot = 0.2;
        spec.on_mean_slots = 40.0;
        spec.off_mean_slots = 60.0;
        break;
      default:
        continue;  // trace stations, below
    }
    engine.add_source(spec);
  }
  // Two sources on one station: station 2 also sends Poisson best effort.
  traffic::FlowSpec second = flow(id++, 2, 1, traffic::ArrivalKind::kPoisson,
                                  TrafficClass::kBestEffort);
  second.rate_per_slot = 0.03;
  second.start_slot = 5;
  engine.add_source(second);

  traffic::GopParams gop;
  gop.frame_period_slots = 40;
  engine.add_trace_source(traffic::make_gop_trace(gop, 60, slots_to_ticks(3)),
                          id++, 3, opposite(3), 500);
  traffic::VoiceParams voice;
  voice.talkspurt_mean_slots = 200.0;
  voice.silence_mean_slots = 300.0;
  for (NodeId node = 7; node < n; node += 4) {
    engine.add_trace_source(
        traffic::make_voice_trace(voice, slots_to_ticks(3000), 17 + node),
        id++, node, opposite(node), 300);
  }
}

/// A CBR flow added at `now` whose start slot lies 150 slots in the past:
/// the first poll must catch up on the arrivals already due.
traffic::FlowSpec late_flow(std::size_t n) {
  traffic::FlowSpec spec = flow(100, 5, static_cast<NodeId>(n - 1),
                                traffic::ArrivalKind::kCbr,
                                TrafficClass::kRealTime);
  spec.period_slots = 9.0;
  spec.start_slot = 250;
  return spec;
}

std::uint64_t wrt_digest() {
  const std::size_t n = 16;
  wrtring::testing::Harness h(n, wrtring::Config{}, /*seed=*/5);
  attach_mix(h.engine, n);
  h.engine.run_slots(400);
  h.engine.add_source(late_flow(n));
  h.engine.run_slots(300);
  // Station 6 leaves and later rejoins; its on/off and CBR arrivals in
  // between are drops.
  EXPECT_TRUE(h.engine.request_leave(6).ok());
  h.engine.run_slots(600);
  h.engine.request_join(6, Quota{2, 2});
  h.engine.run_slots(1700);
  EXPECT_TRUE(h.engine.check_invariants().ok());

  Fnv h64;
  const auto& stats = h.engine.stats();
  mix_sink(h64, stats.sink);
  h64.mix(stats.data_transmissions);
  h64.mix(stats.joins_completed);
  h64.mix(stats.leaves_completed);
  h64.mix(static_cast<std::uint64_t>(h.engine.virtual_ring().size()));
  for (NodeId node = 0; node < n; ++node) {
    const bool member = h.engine.virtual_ring().contains(node);
    h64.mix(static_cast<std::uint64_t>(member));
    if (!member) continue;
    const wrtring::Station station = h.engine.station(node);
    h64.mix(static_cast<std::uint64_t>(
        station.queue_depth(TrafficClass::kRealTime)));
    h64.mix(static_cast<std::uint64_t>(
        station.queue_depth(TrafficClass::kBestEffort)));
  }
  return h64.value();
}

phy::Topology full_room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 5.0),
                       phy::RadioParams{100.0, 0.0});
}

std::uint64_t aloha_digest() {
  const std::size_t n = 16;
  phy::Topology topology = full_room(n);
  aloha::AlohaEngine engine(&topology, aloha::AlohaConfig{}, /*seed=*/5);
  EXPECT_TRUE(engine.init().ok());
  attach_mix(engine, n);
  engine.run_slots(400);
  engine.add_source(late_flow(n));
  engine.run_slots(300);
  // Station 6 dies: its later arrivals are drops.
  engine.kill_station(6);
  engine.run_slots(2300);
  EXPECT_TRUE(engine.check_invariants().ok());

  Fnv h64;
  const auto& stats = engine.stats();
  mix_sink(h64, stats.sink);
  h64.mix(stats.transmissions);
  h64.mix(stats.successes);
  h64.mix(stats.collisions);
  h64.mix(stats.retry_drops);
  return h64.value();
}

std::uint64_t tpt_digest() {
  const std::size_t n = 16;
  phy::Topology topology = full_room(n);
  tpt::TptEngine engine(&topology, tpt::TptConfig{}, /*seed=*/5);
  EXPECT_TRUE(engine.init().ok());
  attach_mix(engine, n);
  engine.run_slots(400);
  engine.add_source(late_flow(n));
  engine.run_slots(300);
  engine.kill_station(6);
  engine.run_slots(2300);
  EXPECT_TRUE(engine.check_invariants().ok());

  Fnv h64;
  const auto& stats = engine.stats();
  mix_sink(h64, stats.sink);
  h64.mix(stats.data_transmissions);
  h64.mix(stats.token_rounds);
  h64.mix(stats.frames_lost);
  h64.mix(stats.tree_rebuilds);
  return h64.value();
}

void expect_digest(const char* name, std::uint64_t got,
                   std::uint64_t expected) {
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE %s 0x%016llxULL\n", name,
                static_cast<unsigned long long>(got));
  }
  EXPECT_EQ(got, expected) << name << " 0x" << std::hex << got;
}

TEST(ArrivalDigest, WrtRing) {
  expect_digest("WrtRing", wrt_digest(), 0xd5838d2ce49b1a0fULL);
}

TEST(ArrivalDigest, Aloha) {
  expect_digest("Aloha", aloha_digest(), 0xedcba00cd5e11be4ULL);
}

TEST(ArrivalDigest, Tpt) {
  expect_digest("Tpt", tpt_digest(), 0x81de1ff4239692c8ULL);
}

}  // namespace
}  // namespace wrt
