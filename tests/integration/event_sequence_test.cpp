// Causal-ordering assertions on the engines' journal timelines: the
// recovery and join machinery must unfold in the order the paper specifies.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/bounds.hpp"
#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

using telemetry::JournalKind;
using wrtring::testing::Harness;
using wrtring::testing::of_kind;
using wrtring::testing::ordered;

TEST(EventSequence, RecoveryUnfoldsInPaperOrder) {
  telemetry::Journal journal;
  Harness h(8, wrtring::Config{}, 1, 2.4, &journal);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  const auto timeline = journal.timeline();
  // launch -> lost -> detected (SAT_REC) -> cut-out -> recovered.
  EXPECT_TRUE(ordered(timeline, JournalKind::kSatLaunched,
                      JournalKind::kSatLost));
  EXPECT_TRUE(ordered(timeline, JournalKind::kSatLost,
                      JournalKind::kSatRecStart));
  EXPECT_TRUE(ordered(timeline, JournalKind::kSatRecStart,
                      JournalKind::kCutOut));
  EXPECT_TRUE(ordered(timeline, JournalKind::kCutOut,
                      JournalKind::kSatRecDone));
  // The detector blamed its ring predecessor, that station was cut out, and
  // the cut-out names the detector as the SAT_REC origin.
  const auto detections = of_kind(timeline, JournalKind::kSatRecStart);
  ASSERT_EQ(detections.size(), 1u);
  const auto cut_outs = of_kind(timeline, JournalKind::kCutOut);
  ASSERT_EQ(cut_outs.size(), 1u);
  EXPECT_EQ(detections[0].event.arg, cut_outs[0].station);
  EXPECT_EQ(cut_outs[0].event.arg, detections[0].station);
}

TEST(EventSequence, DetectionLatencyVisibleInTrace) {
  telemetry::Journal journal;
  Harness h(10, wrtring::Config{}, 1, 2.4, &journal);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  const auto bound = analysis::sat_time_bound(h.engine.ring_params());
  h.engine.run_slots(4 * bound);
  const auto timeline = journal.timeline();
  const auto lost = of_kind(timeline, JournalKind::kSatLost);
  const auto detected = of_kind(timeline, JournalKind::kSatRecStart);
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_EQ(detected.size(), 1u);
  const Tick latency = detected[0].event.tick - lost[0].event.tick;
  EXPECT_GT(latency, 0);
  EXPECT_LE(ticks_to_slots(latency), bound);
}

TEST(EventSequence, JoinEventsCarryIngress) {
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  telemetry::Journal journal;
  Harness h(6, config, 1, 2.4, &journal);
  const phy::Vec2 mid =
      (h.topology.position(2) + h.topology.position(3)) * 0.5;
  const NodeId joiner = h.topology.add_node(mid);
  h.engine.request_join(joiner, {1, 1});
  h.engine.run_slots(6 * 40 * 10);
  const auto timeline = journal.timeline();
  const auto joins = of_kind(timeline, JournalKind::kJoin);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].station, joiner);
  // The recorded ingress really is the joiner's current ring predecessor.
  EXPECT_EQ(h.engine.virtual_ring().predecessor(joiner), joins[0].event.arg);
  // RAPs preceded the join.
  EXPECT_TRUE(ordered(timeline, JournalKind::kRapStart, JournalKind::kJoin));
}

TEST(EventSequence, RejectedJoinLeavesRejectionEvent) {
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  telemetry::Journal journal;
  Harness h(6, config, 1, 2.4, &journal);
  h.engine.set_max_sat_time_goal(
      analysis::sat_time_bound(h.engine.ring_params()) + 2);
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId greedy = h.topology.add_node(mid);
  h.engine.request_join(greedy, {40, 40});
  h.engine.run_slots(6 * 40 * 10);
  const auto timeline = journal.timeline();
  EXPECT_EQ(of_kind(timeline, JournalKind::kJoinRejected).size(), 1u);
  EXPECT_TRUE(of_kind(timeline, JournalKind::kJoin).empty());
}

TEST(EventSequence, TptClaimOrdering) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  tpt::TptEngine engine(&room, config, 1);
  telemetry::Journal journal;
  engine.set_journal(&journal);
  ASSERT_TRUE(engine.init().ok());
  engine.run_slots(200);
  engine.drop_token_once();
  engine.run_slots(10 * config.ttrt_slots);
  const auto timeline = journal.timeline();
  EXPECT_TRUE(ordered(timeline, JournalKind::kTokenLost,
                      JournalKind::kClaimStart));
  EXPECT_TRUE(ordered(timeline, JournalKind::kClaimStart,
                      JournalKind::kClaimDone));
  EXPECT_TRUE(of_kind(timeline, JournalKind::kTreeRebuilt).empty());
}

TEST(EventSequence, TptDeathEndsInTreeRebuild) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  tpt::TptEngine engine(&room, config, 1);
  telemetry::Journal journal;
  engine.set_journal(&journal);
  ASSERT_TRUE(engine.init().ok());
  engine.run_slots(200);
  engine.kill_station(4);
  engine.run_slots(40 * config.ttrt_slots);
  const auto timeline = journal.timeline();
  EXPECT_TRUE(ordered(timeline, JournalKind::kClaimStart,
                      JournalKind::kTreeRebuilt));
  EXPECT_TRUE(of_kind(timeline, JournalKind::kClaimDone).empty());
}

std::string fingerprint(const sim::SampleStats& stats) {
  std::ostringstream out;
  out.precision(17);
  out << stats.count() << '/' << stats.mean() << '/' << stats.variance()
      << '/' << stats.min() << '/' << stats.max() << ';';
  return out.str();
}

std::string fingerprint(const traffic::Sink& sink) {
  std::ostringstream out;
  out << sink.total_delivered() << ';';
  for (const auto cls : {TrafficClass::kRealTime, TrafficClass::kAssured,
                         TrafficClass::kBestEffort}) {
    const auto& by_class = sink.by_class(cls);
    out << by_class.delivered << '/' << by_class.deadline_misses << '/'
        << by_class.dropped << ';';
  }
  return out.str();
}

/// Every EngineStats field, doubles at full precision.
std::string fingerprint(const wrtring::Engine& engine) {
  const wrtring::EngineStats& s = engine.stats();
  std::ostringstream out;
  out << engine.virtual_ring().size() << ';' << fingerprint(s.sink);
  for (const std::uint64_t value :
       {s.sat_hops, s.sat_arrivals, s.sat_holds, s.sat_rounds,
        s.data_transmissions, s.tx_by_class[0], s.tx_by_class[1],
        s.tx_by_class[2], s.transit_forwards, s.frames_lost_link,
        s.frames_lost_rebuild, s.frames_lost_churn, s.frames_dropped_stale,
        s.control_messages_lost, s.join_retries, s.joins_abandoned,
        s.sat_losses_detected, s.sat_recoveries, s.cut_outs,
        s.spurious_cutouts, s.ring_rebuilds, s.raps_started,
        s.joins_completed, s.joins_rejected, s.leaves_completed,
        s.cdma_collisions, s.header_decode_failures}) {
    out << value << ';';
  }
  for (const sim::SampleStats* stats :
       {&s.sat_rotation_slots, &s.sat_hold_slots, &s.access_delay_slots,
        &s.rt_access_delay_slots, &s.sat_loss_detection_slots,
        &s.recovery_total_slots, &s.join_latency_slots}) {
    out << fingerprint(*stats);
  }
  return out.str();
}

/// Every TptStats field, doubles at full precision.
std::string fingerprint(const tpt::TptStats& s) {
  std::ostringstream out;
  out << fingerprint(s.sink);
  for (const std::uint64_t value :
       {s.token_hops, s.token_rounds, s.data_transmissions,
        s.losses_detected, s.claims_succeeded, s.tree_rebuilds,
        s.joins_completed, s.frames_lost, s.data_channel_losses,
        s.token_channel_losses}) {
    out << value << ';';
  }
  for (const sim::SampleStats* stats :
       {&s.token_rotation_slots, &s.access_delay_slots,
        &s.rt_access_delay_slots, &s.loss_detection_slots,
        &s.recovery_total_slots, &s.join_latency_slots}) {
    out << fingerprint(*stats);
  }
  return out.str();
}

/// Drop-SAT, kill and join on one WRT-Ring engine; returns its fingerprint.
std::string run_wrt_script(telemetry::Journal* journal) {
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  Harness h(8, config, 3, 2.4, journal);
  for (NodeId src = 0; src < 8; src += 2) {
    h.engine.add_source(wrtring::testing::rt_flow(src, src, 8));
    h.engine.add_source(wrtring::testing::be_flow(src + 1, src + 1, 8));
  }
  const NodeId joiner = h.topology.add_node(
      (h.topology.position(2) + h.topology.position(3)) * 0.5);
  const auto bound = analysis::sat_time_bound(h.engine.ring_params());
  h.engine.run_slots(200);
  h.engine.drop_sat_once();
  h.engine.run_slots(4 * bound);
  h.engine.kill_station(h.engine.virtual_ring().station_at(4));
  h.engine.run_slots(6 * bound);
  h.engine.request_join(joiner, {1, 1});
  h.engine.run_slots(3000);
  return fingerprint(h.engine);
}

/// Drop-token, kill and join on one TPT engine; returns its fingerprint.
std::string run_tpt_script(telemetry::Journal* journal) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  config.rap_every_rounds = 2;
  tpt::TptEngine engine(&room, config, 1);
  engine.set_journal(journal);
  if (!engine.init().ok()) return "init failed";
  for (NodeId src = 0; src < 8; src += 2) {
    engine.add_source(wrtring::testing::rt_flow(src, src, 8));
  }
  engine.run_slots(200);
  engine.drop_token_once();
  engine.run_slots(10 * config.ttrt_slots);
  engine.kill_station(4);
  engine.run_slots(40 * config.ttrt_slots);
  // Added after the rebuild, so only the RAP can bring it in.
  engine.request_join(room.add_node({0.0, 0.0}));
  engine.run_slots(40 * config.ttrt_slots);
  return fingerprint(engine.stats());
}

TEST(EventSequence, JournalIsObservationOnly) {
  // engine.hpp promises that attaching a journal never changes protocol
  // behaviour: the scripted runs must match field for field.
  telemetry::Journal wrt_journal;
  const std::string wrt_attached = run_wrt_script(&wrt_journal);
  EXPECT_EQ(wrt_attached, run_wrt_script(nullptr));
  const auto wrt_timeline = wrt_journal.timeline();
  EXPECT_EQ(of_kind(wrt_timeline, JournalKind::kSatLost).size(), 2u);
  EXPECT_EQ(of_kind(wrt_timeline, JournalKind::kJoin).size(), 1u);

  telemetry::Journal tpt_journal;
  const std::string tpt_attached = run_tpt_script(&tpt_journal);
  EXPECT_EQ(tpt_attached, run_tpt_script(nullptr));
  const auto tpt_timeline = tpt_journal.timeline();
  EXPECT_FALSE(of_kind(tpt_timeline, JournalKind::kClaimDone).empty());
  EXPECT_FALSE(of_kind(tpt_timeline, JournalKind::kTreeRebuilt).empty());
}

}  // namespace
}  // namespace wrt
