// Section 2.4.1 fairness: "To ensure the fairness, after acting as ingress
// station, a node has to wait S_round(i) >= N SAT rounds in order to enter
// the RAP period again" — and the RAP_mutex admits at most one RAP per SAT
// round.  Verified from the journal's protocol timeline.
#include <gtest/gtest.h>

#include <map>

#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using telemetry::JournalKind;
using testing::Harness;
using testing::of_kind;

/// Per-station capacity that keeps every record of these runs (no wrap).
constexpr std::size_t kJournalCapacity = std::size_t{1} << 14;

Config rap_config() {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.t_ear_slots = 3;
  config.t_update_slots = 1;
  return config;
}

TEST(RapFairness, EveryStationGetsIngressTurns) {
  telemetry::Journal journal(kJournalCapacity);
  Harness h(6, rap_config(), 1, 2.4, &journal);
  h.engine.run_slots(6000);
  ASSERT_EQ(journal.total_dropped(), 0u);
  std::map<NodeId, int> raps;
  for (const auto& record :
       of_kind(journal.timeline(), JournalKind::kRapStart)) {
    ++raps[record.station];
  }
  EXPECT_EQ(raps.size(), 6u) << "every station must act as ingress";
  int min_raps = 1 << 30, max_raps = 0;
  for (const auto& [node, count] : raps) {
    min_raps = std::min(min_raps, count);
    max_raps = std::max(max_raps, count);
  }
  EXPECT_GE(min_raps, 1);
  EXPECT_LE(max_raps - min_raps, 2) << "ingress duty must rotate evenly";
}

TEST(RapFairness, SRoundSpacingRespected) {
  constexpr std::size_t kN = 8;
  telemetry::Journal journal(kJournalCapacity);
  Harness h(kN, rap_config(), 1, 2.4, &journal);
  h.engine.run_slots(10000);
  ASSERT_EQ(journal.total_dropped(), 0u);
  // Between two RAPs of the same station, every other station RAPs once:
  // consecutive same-station RAPs are >= N-1 other RAP events apart.
  const auto raps = of_kind(journal.timeline(), JournalKind::kRapStart);
  ASSERT_GT(raps.size(), 2 * kN);
  std::map<NodeId, std::size_t> last_index;
  for (std::size_t i = 0; i < raps.size(); ++i) {
    const NodeId station = raps[i].station;
    if (const auto it = last_index.find(station);
        it != last_index.end()) {
      EXPECT_GE(i - it->second, kN - 1)
          << "station " << station << " re-entered the RAP too soon";
    }
    last_index[station] = i;
  }
}

TEST(RapFairness, AtMostOneRapPerRound) {
  Harness h(8, rap_config());
  h.engine.run_slots(6000);
  const auto& stats = h.engine.stats();
  EXPECT_LE(stats.raps_started, stats.sat_rounds + 1);
  // And RAPs genuinely happen (the cost term T_rap is real).
  EXPECT_GT(stats.raps_started, stats.sat_rounds / 3);
}

TEST(RapFairness, DisabledPolicyNeverRaps) {
  telemetry::Journal journal;
  Harness h(8, Config{}, 1, 2.4, &journal);
  h.engine.run_slots(4000);
  EXPECT_EQ(h.engine.stats().raps_started, 0u);
  EXPECT_TRUE(of_kind(journal.timeline(), JournalKind::kRapStart).empty());
}

/// A 7-node topology ringing only stations 0..5, leaving node 6 as a live
/// joiner candidate for the lossy-handshake tests.
Harness harness_with_joiner(Config config, std::uint64_t seed) {
  config.members = {0, 1, 2, 3, 4, 5};
  return Harness(7, std::move(config), seed);
}

/// Section 2.4.1 under loss: whichever single handshake message is lost
/// (NEXT_FREE, JOIN_REQ, or JOIN_ACK), the join must still complete — via
/// simply hearing the next broadcast, or via the retry/backoff path — and
/// nothing may be half-inserted meanwhile.
TEST(LossyJoin, SingleMessageLossAtEveryPositionStillJoins) {
  for (const auto msg :
       {Engine::ControlMsg::kNextFree, Engine::ControlMsg::kJoinReq,
        Engine::ControlMsg::kJoinAck}) {
    SCOPED_TRACE(static_cast<int>(msg));
    Harness h = harness_with_joiner(rap_config(), 41);
    h.engine.run_slots(100);
    h.engine.request_join(6, {1, 1});
    h.engine.drop_control_once(msg);
    h.engine.run_slots(8000);
    const auto& stats = h.engine.stats();
    EXPECT_GE(stats.control_messages_lost, 1u);
    EXPECT_EQ(stats.joins_completed, 1u);
    EXPECT_EQ(stats.joins_abandoned, 0u);
    EXPECT_TRUE(h.engine.virtual_ring().contains(6));
    EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
    if (msg != Engine::ControlMsg::kNextFree) {
      // A joiner that sent JOIN_REQ and saw no acknowledged insertion
      // backs off; a lost NEXT_FREE is invisible to it (no retry charged).
      EXPECT_GE(stats.join_retries, 1u);
    }
    EXPECT_TRUE(h.engine.check_invariants().ok());
  }
}

/// Losing the handshake every single time must end in a clean abandonment
/// after join_max_attempts: nothing half-inserted, RAP_mutex free, and a
/// later retry under a clean channel succeeds.
TEST(LossyJoin, PersistentLossAbandonsCleanlyWithoutWedgingTheRap) {
  Config config = rap_config();
  config.join_max_attempts = 5;
  Harness h = harness_with_joiner(config, 43);
  h.engine.run_slots(100);
  h.engine.request_join(6, {1, 1});
  // Re-arm the drop the moment each one is consumed, so every attempt of
  // the backoff ladder loses its JOIN_REQ (backoff >= base slots keeps the
  // re-arm ahead of the next attempt).
  std::uint64_t seen = 0;
  while (h.engine.stats().joins_abandoned == 0 &&
         h.engine.now_slots() < 60000) {
    h.engine.drop_control_once(Engine::ControlMsg::kJoinReq);
    while (h.engine.stats().control_messages_lost == seen &&
           h.engine.now_slots() < 60000) {
      h.engine.run_slots(1);
    }
    seen = h.engine.stats().control_messages_lost;
  }
  const auto& stats = h.engine.stats();
  EXPECT_EQ(stats.joins_abandoned, 1u);
  EXPECT_EQ(stats.join_retries, config.join_max_attempts);
  EXPECT_EQ(stats.joins_completed, 0u);
  EXPECT_FALSE(h.engine.virtual_ring().contains(6));
  EXPECT_EQ(h.engine.virtual_ring().size(), 6u);
  EXPECT_TRUE(h.engine.check_invariants().ok());

  // The RAP machinery survived: a fresh, loss-free join goes through.
  const auto raps_before = h.engine.stats().raps_started;
  h.engine.request_join(6, {1, 1});
  h.engine.run_slots(4000);
  EXPECT_GT(h.engine.stats().raps_started, raps_before);
  EXPECT_EQ(h.engine.stats().joins_completed, 1u);
  EXPECT_TRUE(h.engine.virtual_ring().contains(6));
}

/// Exponential backoff must actually space the retries out: with the
/// channel losing every control message, later attempts are further apart.
TEST(LossyJoin, BackoffDelaysGrow) {
  Config config = rap_config();
  config.join_max_attempts = 4;
  // Large enough base that the exponential ladder dominates the RAP
  // cadence quantisation by the final attempt.
  config.join_backoff_base_slots = 256;
  Harness h = harness_with_joiner(config, 47);
  h.engine.run_slots(100);
  h.engine.request_join(6, {1, 1});
  std::vector<std::int64_t> loss_slots;
  std::uint64_t seen = 0;
  while (h.engine.stats().joins_abandoned == 0 &&
         h.engine.now_slots() < 40000) {
    h.engine.drop_control_once(Engine::ControlMsg::kJoinReq);
    while (h.engine.stats().control_messages_lost == seen &&
           h.engine.now_slots() < 40000) {
      h.engine.run_slots(1);
    }
    if (h.engine.stats().control_messages_lost > seen) {
      seen = h.engine.stats().control_messages_lost;
      loss_slots.push_back(h.engine.now_slots());
    }
  }
  ASSERT_EQ(loss_slots.size(), 4u);
  // Attempt 3 -> 4 waits at least base << 2 slots; attempt 1 -> 2 only
  // base << 0 plus RAP cadence, so the last gap dominates the first.
  const auto first_gap = loss_slots[1] - loss_slots[0];
  const auto last_gap = loss_slots[3] - loss_slots[2];
  EXPECT_GE(last_gap, config.join_backoff_base_slots << 2);
  EXPECT_GT(last_gap, first_gap);
}

}  // namespace
}  // namespace wrt::wrtring
