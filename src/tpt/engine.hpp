// TPT (Token Passing Tree) protocol engine — the paper's baseline
// (Section 3.1, after Jianqiang/Shengming/Dajiang [11]).
//
// Timed-token MAC over a tree:
//  * Only the token holder transmits (one packet per slot on the single
//    shared channel — no spatial reuse, the defining contrast with
//    WRT-Ring's CDMA concurrency).
//  * Synchronous (real-time) traffic: up to H_e,i slots per visit, always.
//  * Asynchronous (best-effort): only with the token-holding budget
//    THT = max(0, TTRT - TRT) measured on token arrival (FDDI rules [12]).
//  * The token walks the tree depth-first: 2 (N - 1) link traversals per
//    round, each costing T_proc + T_prop slots.
//  * Interior stations transmit on their first visit of a round; later
//    visits of the same round just forward the token.
//  * Token loss: per-station timer armed to 2 TTRT at token departure; on
//    expiry the station issues a claim token that re-walks the tour.  If
//    the claim survives, it becomes the new token; if it dies (a station or
//    link is gone), the whole tree is rebuilt (Section 3.1.3) — TPT has no
//    cut-out shortcut, which is exactly the reaction-time disadvantage the
//    paper's Section 3.3 argues.
//  * Join: every `rap_every_rounds` rounds the root opens a T_rap random
//    access period; a reachable requesting station joins as a child of the
//    station that accepted it (Section 3.1.1).
//
// Data delivery: direct when src and dst are in radio range (the indoor
// dense case); otherwise hop-by-hop along the tree path through forward
// queues served with priority inside the holder's synchronous window.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "analysis/bounds.hpp"
#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "sim/stats.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "tpt/tree.hpp"
#include "traffic/arrival_schedule.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/result.hpp"

namespace wrt::tpt {

struct TptConfig {
  std::int64_t ttrt_slots = 64;          ///< Target Token Rotation Time
  std::int64_t h_sync_default = 1;       ///< H_e,i (slots per visit)
  std::vector<std::int64_t> h_sync;      ///< per-station override (by index)
  std::int64_t t_proc_prop_slots = 1;    ///< token transfer per link
  std::int64_t rap_every_rounds = 0;     ///< 0 = no RAP
  std::int64_t t_rap_slots = 6;
  std::int64_t rebuild_base_slots = 8;
  std::int64_t rebuild_per_station_slots = 2;
  std::size_t queue_capacity = 4096;

  /// Gilbert–Elliott per-link loss, same plane as the other engines: kData
  /// governs data frames (direct and hop-by-hop), kSat governs token and
  /// claim hops (a faded token is a lost token, Section 3.1.3's trigger).
  /// All processes disabled by default — zero RNG draws, so existing
  /// fixed-seed TPT behaviour is untouched.
  fault::ChannelConfig channel;
};

struct TptStats {
  sim::SampleStats token_rotation_slots;
  sim::SampleStats access_delay_slots;
  sim::SampleStats rt_access_delay_slots;
  traffic::Sink sink;
  std::uint64_t token_hops = 0;
  std::uint64_t token_rounds = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t losses_detected = 0;
  std::uint64_t claims_succeeded = 0;
  std::uint64_t tree_rebuilds = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t data_channel_losses = 0;   ///< Gilbert–Elliott data fades
  std::uint64_t token_channel_losses = 0;  ///< token hops lost to fades
  sim::SampleStats loss_detection_slots;
  sim::SampleStats recovery_total_slots;
  sim::SampleStats join_latency_slots;
};

enum class TokenState : std::uint8_t {
  kAtStation,
  kInTransit,
  kClaimInTransit,
  kLost,
  kRap,
  kRebuilding,
};

class TptEngine final {
 public:
  TptEngine(phy::Topology* topology, TptConfig config, std::uint64_t seed);

  TptEngine(const TptEngine&) = delete;
  TptEngine& operator=(const TptEngine&) = delete;

  /// Builds the tree (rooted at the lowest alive node id) and launches the
  /// token.
  [[nodiscard]] util::Status init();

  void add_source(const traffic::FlowSpec& spec);
  void add_saturated_source(const traffic::FlowSpec& spec,
                            std::size_t backlog = 4);

  /// Replays a recorded/synthetic trace as one flow (same semantics as
  /// wrtring::Engine::add_trace_source, for identical-arrival comparisons).
  void add_trace_source(traffic::Trace trace, FlowId flow, NodeId src,
                        NodeId dst, std::int64_t deadline_slots = 0);

  // wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
  bool inject_packet(traffic::Packet packet);

  void step();
  void run_slots(std::int64_t n);
  [[nodiscard]] Tick now() const noexcept { return now_; }

  void request_join(NodeId node);
  void kill_station(NodeId node);
  void drop_token_once() noexcept { drop_token_pending_ = true; }

  /// Gilbert–Elliott override on a <-> b for both purposes the tree uses
  /// (data frames and token hops), mirroring wrtring::Engine::degrade_link.
  void degrade_link(NodeId a, NodeId b, const fault::GeParams& params);
  void heal_link(NodeId a, NodeId b);

  [[nodiscard]] const TptStats& stats() const noexcept { return stats_; }

  /// Attaches a telemetry event journal (nullptr detaches).  While attached
  /// the engine records token losses, claims and tree rebuilds.
  /// Observation only, and one pointer test per event when detached.  The
  /// journal must outlive the engine or be detached.
  void set_journal(telemetry::Journal* journal) noexcept {
    journal_ = journal;
  }
  [[nodiscard]] const Tree& tree() const noexcept { return tree_; }
  [[nodiscard]] TokenState token_state() const noexcept { return state_; }

  /// Analytical parameters matching the current tree, for Eq (7).
  [[nodiscard]] analysis::TptParams params() const;

  /// Internal-consistency audit (tour/tree/station alignment, budget and
  /// accounting sanity); mirrors wrtring::Engine::check_invariants.
  [[nodiscard]] util::Status check_invariants() const;

 private:
  struct StationState {
    std::deque<traffic::Packet> rt_queue;
    std::deque<traffic::Packet> be_queue;
    std::deque<traffic::Packet> forward_queue;  ///< multi-hop transit
    Tick last_token_arrival = kNeverTick;
    Tick last_token_departure = kNeverTick;
    std::uint64_t last_round_transmitted = ~std::uint64_t{0};
  };

  void poll_traffic();
  void token_step();
  void check_timers();
  void token_arrive();
  void pass_token();
  void start_claim(NodeId detector);
  void start_rebuild();
  void finish_rebuild();
  void transmit_one(NodeId holder);
  [[nodiscard]] std::int64_t h_sync_for(NodeId node) const;
  void refresh_tour();
  void launch_token();
  void open_rap(NodeId at);
  void finish_rap();
  /// Journal append guarded by attachment; one pointer test when detached.
  void journal_record(NodeId station, telemetry::JournalKind kind,
                      std::uint32_t arg = 0) {
    if (journal_ != nullptr) journal_->record(station, kind, now_, arg);
  }

  phy::Topology* topology_;
  TptConfig config_;
  std::uint64_t seed_;
  Tick now_ = 0;
  bool initialised_ = false;
  fault::LinkLossField loss_field_;

  Tree tree_;
  std::vector<NodeId> tour_;
  std::size_t tour_index_ = 0;  ///< position of the token in the tour
  TokenState state_ = TokenState::kLost;
  Tick transit_arrival_ = kNeverTick;
  Tick token_lost_at_ = kNeverTick;
  Tick rebuild_done_ = kNeverTick;

  // Holder bookkeeping.
  std::int64_t sync_budget_ = 0;
  std::int64_t async_budget_ = 0;
  bool holder_transmits_ = false;  ///< first visit of this round?

  // Claim bookkeeping.
  NodeId claim_origin_ = kInvalidNode;
  std::size_t claim_index_ = 0;
  std::size_t claim_hops_remaining_ = 0;
  Tick claim_deadline_ = kNeverTick;

  // RAP bookkeeping.
  Tick rap_end_ = 0;
  NodeId rap_station_ = kInvalidNode;
  std::uint64_t rounds_since_rap_ = 0;

  std::map<NodeId, StationState> stations_;
  std::map<NodeId, Tick> pending_joins_;  ///< joiner -> request time

  struct BoundSaturated {
    traffic::SaturatedSource source;
    NodeId station;
    std::size_t backlog;
  };
  traffic::ArrivalSchedule arrivals_;
  std::vector<BoundSaturated> saturated_;
  std::vector<traffic::Packet> scratch_;

  bool drop_token_pending_ = false;

  TptStats stats_;
  telemetry::Journal* journal_ = nullptr;  ///< opt-in; see set_journal

#if WRT_TELEMETRY_LEVEL
  // Publishes the tpt_* registry counters from stats_ at run_slots()
  // return, on destruction and by every registry snapshot.  Declared last
  // so its destructor's flush still reads live counters.
  telemetry::TelemetryBatch telem_batch_;
#endif
};

}  // namespace wrt::tpt
