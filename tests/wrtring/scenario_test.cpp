#include "wrtring/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

bool log_contains(const std::vector<ScenarioLogEntry>& log,
                  const std::string& needle) {
  return std::any_of(log.begin(), log.end(),
                     [&](const ScenarioLogEntry& entry) {
                       return entry.what.find(needle) != std::string::npos;
                     });
}

fault::FaultPlan plan_of(const std::string& text) {
  auto plan = fault::FaultPlan::parse(text);
  EXPECT_TRUE(plan.ok()) << plan.error().message;
  return plan.ok() ? std::move(plan.value()) : fault::FaultPlan{};
}

TEST(Scenario, AppliesActionsAtScriptedSlots) {
  Harness h(10, Config{});
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  // Added out of slot order: the plan (and so the run) is slot-ordered.
  fault::FaultPlan plan;
  fault::FaultEvent kill;
  kill.slot = 200;
  kill.kind = fault::FaultKind::kCrash;
  kill.a = victim;
  plan.add(kill);
  fault::FaultEvent mark;
  mark.slot = 100;
  mark.kind = fault::FaultKind::kMark;
  mark.label = "checkpoint";
  plan.add(mark);
  const auto log = run_plan(plan, h.engine, h.topology, 2000);
  const std::string kill_line = "crash " + std::to_string(victim);
  ASSERT_TRUE(log_contains(log, kill_line));
  ASSERT_TRUE(log_contains(log, "mark checkpoint"));
  // The marker fired before the kill despite insertion order, and each at
  // its scripted slot.
  const auto marked = std::find_if(log.begin(), log.end(),
                                   [](const auto& e) {
                                     return e.what == "mark checkpoint";
                                   });
  const auto killed = std::find_if(log.begin(), log.end(), [&](const auto& e) {
    return e.what == kill_line;
  });
  ASSERT_NE(marked, log.end());
  ASSERT_NE(killed, log.end());
  EXPECT_LT(marked - log.begin(), killed - log.begin());
  EXPECT_EQ(marked->slot, 100);
  EXPECT_EQ(killed->slot, 200);
  // The automatic ring-size entry follows the recovery.
  EXPECT_TRUE(log_contains(log, "ring shrank"));
  EXPECT_EQ(h.engine.virtual_ring().size(), 9u);
}

TEST(Scenario, JoinScript) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  Harness h(6, config);
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId joiner = h.topology.add_node(mid);
  const auto log =
      run_plan(plan_of("@50 join " + std::to_string(joiner) + " l=1 k=1\n"),
               h.engine, h.topology, 12000);
  EXPECT_TRUE(log_contains(log, "join " + std::to_string(joiner)));
  EXPECT_TRUE(log_contains(log, "ring grew"));
  EXPECT_TRUE(h.engine.virtual_ring().contains(joiner));
}

TEST(Scenario, LeaveRefusalIsLogged) {
  Harness h(3, Config{});
  const NodeId node = h.engine.virtual_ring().station_at(0);
  const auto log =
      run_plan(plan_of("@10 leave " + std::to_string(node) + "\n"),
               h.engine, h.topology, 100);
  EXPECT_TRUE(log_contains(log, "leave refused"));
  EXPECT_EQ(h.engine.virtual_ring().size(), 3u);
}

TEST(Scenario, LinkFailureAndRestore) {
  Harness h(8, Config{});
  const NodeId a = h.engine.virtual_ring().station_at(1);
  const NodeId b = h.engine.virtual_ring().station_at(2);
  const std::string link = std::to_string(a) + " " + std::to_string(b);
  const auto log = run_plan(
      plan_of("@100 link-break " + link + "\n@150 link-heal " + link + "\n"),
      h.engine, h.topology, 1500);
  EXPECT_TRUE(log_contains(log, "link-break " + link));
  EXPECT_TRUE(log_contains(log, "link-heal " + link));
  EXPECT_TRUE(h.topology.reachable(a, b));
}

TEST(Scenario, DropSatTimeline) {
  Harness h(8, Config{});
  const auto log =
      run_plan(plan_of("@100 drop-sat\n"), h.engine, h.topology, 2000);
  EXPECT_TRUE(log_contains(log, "drop-sat"));
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 1u);
}

TEST(Scenario, LogCarriesRingStateSnapshots) {
  Harness h(8, Config{});
  const auto log =
      run_plan(plan_of("@10 mark snap\n"), h.engine, h.topology, 100);
  const auto snap = std::find_if(log.begin(), log.end(), [](const auto& e) {
    return e.what == "mark snap";
  });
  ASSERT_NE(snap, log.end());
  EXPECT_EQ(snap->slot, 10);
  EXPECT_EQ(snap->ring_size, 8u);
}

TEST(Scenario, MobilityHookRuns) {
  Harness h(8, Config{}, 1, 3.0);
  phy::WaypointParams params;
  params.leash_radius = 0.3;
  params.slot_seconds = 1e-3;
  phy::BoundedRandomWaypoint mobility(phy::Rect{{-30, -30}, {30, 30}},
                                      params, 3);
  mobility.bind(h.topology);
  const phy::Vec2 before = h.topology.position(0);
  (void)run_plan(fault::FaultPlan{}, h.engine, h.topology, 20000, &mobility,
                 50);
  // Tight leash: ring survives; position drifted at least a little.
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  const double moved = phy::distance(h.topology.position(0), before);
  EXPECT_GT(moved, 0.0);
  EXPECT_LE(moved, 0.3 + 1e-6);
}

TEST(Scenario, FlapExpandsIntoBreakHealPairsPerCycle) {
  Harness h(8, Config{});
  const auto log =
      run_plan(plan_of("@100 flap 0 1 period=40 duty=25 cycles=3\n"),
               h.engine, h.topology, 400);
  std::size_t fails = 0;
  std::size_t restores = 0;
  std::int64_t first_fail = -1;
  std::int64_t first_restore = -1;
  for (const ScenarioLogEntry& entry : log) {
    if (entry.what == "link-break 0 1") {
      if (fails == 0) first_fail = entry.slot;
      ++fails;
    }
    if (entry.what == "link-heal 0 1") {
      if (restores == 0) first_restore = entry.slot;
      ++restores;
    }
  }
  // One break/heal pair per cycle; down for period * duty / 100 slots.
  EXPECT_EQ(fails, 3u);
  EXPECT_EQ(restores, 3u);
  EXPECT_EQ(first_fail, 100);
  EXPECT_EQ(first_restore, 110);
}

TEST(Scenario, ForcedSwitchScriptHoldsAndReleasesStation) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  Harness h(8, config);
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  const std::string node = std::to_string(victim);
  const auto log = run_plan(plan_of("@100 force-switch " + node +
                                    "\n@2000 clear-switch " + node + "\n"),
                            h.engine, h.topology, 12000);
  EXPECT_TRUE(log_contains(log, "force-switch " + node));
  EXPECT_TRUE(log_contains(log, "clear-switch " + node));
  // Forced out via graceful leave, re-admitted after the clear (wtb = 0).
  EXPECT_TRUE(log_contains(log, "ring shrank"));
  EXPECT_TRUE(h.engine.virtual_ring().contains(victim));
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
}

}  // namespace
}  // namespace wrt::wrtring
