// Accounting regressions for the slot-kernel bugfix sweep (PR 6):
//
//   1. Bare step() drivers must see exact registry totals — snapshot()
//      drains the engine's staged TelemetryBatch, so counters no longer
//      lag by up to kTelemetryFlushSlots when nobody calls run_slots().
//   2. In-flight frames discarded when a join splices the ring are churn
//      losses (frames_lost_churn), not teardown losses — a graceful join
//      is not a rebuild, and dashboards alerting on frames_lost_rebuild
//      must not fire on healthy admissions.
//   3. The stale-frame purge (hops > R + 1) is reachable: after a graceful
//      leave, frames addressed to the ex-member keep entering the ring and
//      must be purged instead of circulating forever.
//   4. Registry parity: every counter an engine publishes grows by exactly
//      its owner's field (EngineStats, TptStats, RecoveryFsm) over a run
//      that exercises each fault and membership path.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "telemetry/registry.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

phy::Topology small_room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 10.0),
                       phy::RadioParams{25.0, 0.0});
}

void saturate_all(Engine& engine, std::size_t members, NodeId dst_shift) {
  for (NodeId node = 0; node < members; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + dst_shift) % members);
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
}

std::uint64_t accounted(const Engine& engine) {
  const EngineStats& stats = engine.stats();
  return stats.sink.total_delivered() + stats.frames_lost_link +
         stats.frames_lost_rebuild + stats.frames_lost_churn +
         stats.frames_dropped_stale + engine.frames_in_flight();
}

// Satellite 1: a driver that never calls run_slots() must still read exact
// totals from a registry snapshot.  163 bare step() calls end mid-flush
// interval (163 & 63 != 0), so without the snapshot-time drain the
// slots_stepped delta would be short by the staged remainder.
TEST(EngineAccounting, BareStepTotalsVisibleInSnapshot) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::size_t n = 8;
  phy::Topology topology = small_room(n);
  Engine engine(&topology, Config{}, /*seed=*/3);
  saturate_all(engine, n, static_cast<NodeId>(n / 2));
  ASSERT_TRUE(engine.init().ok());

  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  const int kSteps = 163;
  for (int i = 0; i < kSteps; ++i) engine.step();
  const telemetry::RegistrySnapshot after = registry.snapshot();
  EXPECT_EQ(after.counter(telemetry::CounterId::kSlotsStepped) -
                before.counter(telemetry::CounterId::kSlotsStepped),
            static_cast<std::uint64_t>(kSteps));
  // Deliveries staged between flush boundaries must be visible too; the
  // engine is fresh, so the snapshot delta is exactly its sink total.
  EXPECT_EQ(after.counter(telemetry::CounterId::kDeliveries) -
                before.counter(telemetry::CounterId::kDeliveries),
            engine.stats().sink.total_delivered());
}

// Satellite 2: join-path drops are churn, not rebuild.  The RAP halts
// injections, so with 1-slot hops the ring would drain before the update
// phase; 4-slot hop pipelines keep frames in flight across the RAP, and
// the splice at join completion must charge them to frames_lost_churn
// while the teardown counter stays zero (nothing was rebuilt or
// recovered).
TEST(EngineAccounting, JoinDropsChargeChurnNotRebuild) {
  const std::size_t n = 8;
  phy::Topology topology = small_room(n);
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.s_round_min = 4;
  config.hop_latency_slots = 4;
  config.members.resize(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    config.members[i] = static_cast<NodeId>(i);
  }
  Engine engine(&topology, config, /*seed=*/3);
  saturate_all(engine, n - 1, static_cast<NodeId>(n / 2));
  ASSERT_TRUE(engine.init().ok());

  engine.run_slots(256);
  engine.request_join(static_cast<NodeId>(n - 1), Quota{1, 1});
  engine.run_slots(4000);

  const EngineStats& stats = engine.stats();
  ASSERT_EQ(stats.joins_completed, 1u);
  EXPECT_GT(stats.frames_lost_churn, 0u);
  EXPECT_EQ(stats.frames_lost_rebuild, 0u);
  EXPECT_EQ(stats.data_transmissions, accounted(engine));
  EXPECT_TRUE(engine.check_invariants().ok());
}

// Satellite 3: every station floods the eventual leaver, so after the
// graceful leave the ring carries frames addressed to a non-member; they
// must hit the hops > R + 1 purge rather than orbiting indefinitely.
TEST(EngineAccounting, StalePurgeReachableAfterLeave) {
  const std::size_t n = 8;
  const NodeId leaver = 5;
  phy::Topology topology = small_room(n);
  Engine engine(&topology, Config{}, /*seed=*/3);
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = node == leaver ? NodeId{0} : leaver;
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
  ASSERT_TRUE(engine.init().ok());

  engine.run_slots(256);
  EXPECT_EQ(engine.stats().frames_dropped_stale, 0u);
  ASSERT_TRUE(engine.request_leave(leaver).ok());
  engine.run_slots(512);

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.leaves_completed, 1u);
  EXPECT_GT(stats.frames_dropped_stale, 0u);
  EXPECT_EQ(stats.data_transmissions, accounted(engine));
  EXPECT_TRUE(engine.check_invariants().ok());
}

using telemetry::CounterId;
using Owners = std::vector<std::pair<CounterId, std::uint64_t>>;

/// Every registry counter the WRT-Ring engine publishes, with the value of
/// the owner field it is published from.
Owners engine_owners(const Engine& engine) {
  const EngineStats& stats = engine.stats();
  const RecoveryFsm& fsm = engine.recovery_fsm();
  const auto slots = static_cast<std::uint64_t>(engine.now_slots());
  return {
      {CounterId::kSlotsStepped, slots},
      {CounterId::kSatHandoffs, stats.sat_hops},
      {CounterId::kSatArrivals, stats.sat_arrivals},
      {CounterId::kSatHolds, stats.sat_holds},
      {CounterId::kTxRealTime, stats.tx_by_class[0]},
      {CounterId::kTxAssured, stats.tx_by_class[1]},
      {CounterId::kTxBestEffort, stats.tx_by_class[2]},
      {CounterId::kTransitForwards, stats.transit_forwards},
      {CounterId::kDeliveries, stats.sink.total_delivered()},
      {CounterId::kFramesLost, stats.frames_lost_link},
      {CounterId::kFramesLostRebuild, stats.frames_lost_rebuild},
      {CounterId::kFramesLostChurn, stats.frames_lost_churn},
      {CounterId::kControlMsgsLost, stats.control_messages_lost},
      {CounterId::kJoinRetries, stats.join_retries},
      {CounterId::kJoins, stats.joins_completed},
      {CounterId::kJoinsRejected, stats.joins_rejected},
      {CounterId::kLeaves, stats.leaves_completed},
      {CounterId::kCutOuts, stats.cut_outs},
      {CounterId::kSpuriousCutOuts, stats.spurious_cutouts},
      {CounterId::kSatLossesDetected, stats.sat_losses_detected},
      {CounterId::kSatRecoveries, stats.sat_recoveries},
      {CounterId::kRingRebuilds, stats.ring_rebuilds},
      {CounterId::kRapsStarted, stats.raps_started},
      {CounterId::kRecoveryFsmTransitions, fsm.transitions()},
      {CounterId::kStaleRecSuppressed, fsm.stale_rec_suppressed()},
      {CounterId::kWtrHoldoffs, fsm.wtr_holdoffs()},
  };
}

/// The registry grew by exactly each owner's value between two snapshots
/// that bracket one engine's whole life.
void expect_registry_parity(const telemetry::RegistrySnapshot& before,
                            const telemetry::RegistrySnapshot& after,
                            const Owners& owners) {
  for (const auto& [id, owner] : owners) {
    EXPECT_EQ(after.counter(id) - before.counter(id), owner)
        << telemetry::counter_name(id);
  }
}

std::uint64_t owner(const Owners& owners, CounterId id) {
  for (const auto& [counter, value] : owners) {
    if (counter == id) return value;
  }
  return 0;
}

// 4. Registry parity: a 12-station ring under saturated best-effort load to
// the opposite station, driven through a stalled station, a degraded link,
// a join, a graceful leave and a dropped SAT.  Frames that reach the
// stalled station are lost on arrival; they once reached EngineStats but
// not the registry's frames_lost.
TEST(EngineAccounting, RegistryCountersMatchOwnersUnderFaults) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::size_t members = 12;
  const auto joiner = static_cast<NodeId>(members);
  phy::Topology topology = small_room(members + 1);
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.s_round_min = 4;
  config.members.resize(members);
  for (std::size_t i = 0; i < members; ++i) {
    config.members[i] = static_cast<NodeId>(i);
  }
  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  Owners owners;
  {
    Engine engine(&topology, config, /*seed=*/3);
    for (NodeId node = 0; node < members; ++node) {
      traffic::FlowSpec spec;
      spec.id = node;
      spec.src = node;
      spec.dst = static_cast<NodeId>((node + members / 2) % members);
      spec.cls = TrafficClass::kBestEffort;
      engine.add_saturated_source(spec, 4);
    }
    ASSERT_TRUE(engine.init().ok());

    engine.run_slots(500);
    engine.stall_station(5);
    engine.run_slots(3000);
    EXPECT_GT(engine.stats().frames_lost_link, 0u);
    engine.resume_station(5);
    engine.degrade_link(1, 2, fault::GeParams::iid(0.3));
    engine.run_slots(1000);
    engine.heal_link(1, 2);
    engine.request_join(joiner, Quota{1, 1});
    engine.run_slots(3000);
    ASSERT_TRUE(engine.request_leave(8).ok());
    engine.run_slots(1000);
    engine.drop_sat_once();
    engine.run_slots(2000);

    owners = engine_owners(engine);
    EXPECT_GT(owner(owners, CounterId::kJoins), 0u);
    EXPECT_GT(owner(owners, CounterId::kLeaves), 0u);
    EXPECT_GT(owner(owners, CounterId::kSatLossesDetected), 0u);
    EXPECT_GT(owner(owners, CounterId::kTxBestEffort), 0u);
  }
  expect_registry_parity(before, registry.snapshot(), owners);
}

// 4. Registry parity, RecoveryFsm counters: with the guard window and WTR
// enabled, a stall long enough to be cut out parks the victim behind the
// WTR hold-off, and a short flap afterwards is cancelled as a stale
// SAT_REC.
TEST(EngineAccounting, RecoveryFsmCountersMatchRegistry) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::size_t n = 8;
  phy::Topology topology = small_room(n);
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.guard_slots = 64;
  config.wtr_slots = 200;
  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  Owners owners;
  {
    Engine engine(&topology, config, /*seed=*/3);
    saturate_all(engine, n, static_cast<NodeId>(n / 2));
    ASSERT_TRUE(engine.init().ok());

    engine.run_slots(500);
    engine.stall_station(3);
    engine.run_slots(1000);
    engine.resume_station(3);
    engine.run_slots(2000);
    engine.stall_station(6);
    engine.run_slots(20);  // resumes before the SAT_REC reaches it
    engine.resume_station(6);
    engine.run_slots(2000);

    const RecoveryFsm& fsm = engine.recovery_fsm();
    EXPECT_GT(fsm.transitions(), 0u);
    EXPECT_GT(fsm.stale_rec_suppressed(), 0u);
    EXPECT_GT(fsm.wtr_holdoffs(), 0u);
    owners = engine_owners(engine);
  }
  expect_registry_parity(before, registry.snapshot(), owners);
}

// 4. Registry parity, TPT counters: a dropped token recovered by a claim
// and a dead station forcing a tree rebuild.
TEST(EngineAccounting, TptCountersMatchRegistry) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  phy::Topology topology(phy::placement::circle(8, 5.0),
                         phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  Owners owners;
  {
    tpt::TptEngine engine(&topology, config, /*seed=*/1);
    ASSERT_TRUE(engine.init().ok());
    engine.run_slots(300);
    engine.drop_token_once();
    engine.run_slots(10 * config.ttrt_slots);
    engine.kill_station(3);
    engine.run_slots(30 * config.ttrt_slots);

    const tpt::TptStats& stats = engine.stats();
    EXPECT_GT(stats.losses_detected, 0u);
    EXPECT_GT(stats.tree_rebuilds, 0u);
    owners = {{CounterId::kTptTokenPasses, stats.token_hops},
              {CounterId::kTptTokenRounds, stats.token_rounds},
              {CounterId::kTptClaims, stats.losses_detected},
              {CounterId::kTptTreeRebuilds, stats.tree_rebuilds}};
  }
  expect_registry_parity(before, registry.snapshot(), owners);
}

}  // namespace
}  // namespace wrt::wrtring
