// WRT-Ring protocol engine.
//
// A slot-synchronous simulation of the full protocol of Section 2:
//
//  * Data plane — a slotted virtual ring with destination release.  Each
//    slot, every station forwards the frame in transit on its incoming link
//    or, if that link slot is empty, injects a local packet according to the
//    Send algorithm (Section 2.2).  Per-hop transmissions are CDMA-coded to
//    the downstream neighbour, so all N links are active concurrently —
//    Figure 1's spatial reuse.
//  * Control plane — the SAT signal circulates with the traffic direction,
//    held at not-satisfied stations (SAT algorithm), carrying the RAP mutex
//    flag (Section 2.4.1).
//  * Topology changes — RAP-based join (NEXT_FREE / JOIN_REQ / JOIN_ACK),
//    graceful leave, SAT-loss detection via per-station SAT_TIMER, SAT_REC
//    cut-out recovery, and full ring re-formation as last resort
//    (Sections 2.4 and 2.5).
//
// The engine steps in MAC slots; one Engine instance is single-threaded and
// owns all protocol state, so parallel replications each build their own.
//
// Storage layout: the per-slot hot path is position-indexed,
// structure-of-arrays.  All per-station state — quota/split counters,
// per-class backlog queues, link-pipeline cursors, transit registers, SAT
// timers and rotation history — lives in `kernel_` (wrtring::SlotKernel),
// one dense column per field, indexed by ring position: entry p always
// describes the station at ring_.station_at(p) and the link from position p
// to p+1.  data_plane_step() and check_sat_timers() are contiguous passes
// over exactly the columns they touch, with no associative lookups and no
// per-station object hops; the OO accessors (station(), Station) are views
// into the same columns.  Every membership path (init, join, SAT_REC
// cut-out, graceful leave, ring re-formation) mutates the kernel columns
// and the ring order together and then refreshes `position_index_`
// (NodeId -> position, -1 when not a member), which serves the by-NodeId
// control-plane accessors.  `membership_epoch_` increments on each such
// change, and the per-position liveness/reachability caches are keyed by
// (topology version, membership epoch, stall epoch), so steady-state
// stepping is lookup-free.  Traffic arrivals are event-driven: the
// traffic::ArrivalSchedule polls only the sources that are due, and the
// O(1) position lookup runs only for a source that produced packets.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cdma/channel.hpp"
#include "cdma/code_assignment.hpp"
#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "ring/frame.hpp"
#include "ring/virtual_ring.hpp"
#include "sim/stats.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/arrival_schedule.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/flat_map.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"
#include "wrtring/config.hpp"
#include "wrtring/recovery_fsm.hpp"
#include "wrtring/soa_kernel.hpp"
#include "wrtring/station.hpp"

namespace wrt::check {
class InvariantAuditor;   // runtime invariant auditor (src/check/)
struct EngineTestHook;    // test-only state corruption (src/check/)
}  // namespace wrt::check

namespace wrt::wrtring {

/// Aggregate protocol statistics exposed to harnesses.
struct EngineStats {
  sim::SampleStats sat_rotation_slots;   ///< per-arrival rotation samples
  sim::SampleStats sat_hold_slots;       ///< per-seizure SAT hold durations
  sim::SampleStats access_delay_slots;   ///< packet queue -> first tx
  sim::SampleStats rt_access_delay_slots;
  traffic::Sink sink;                    ///< delivery accounting
  std::uint64_t sat_hops = 0;            ///< SAT link traversals
  std::uint64_t sat_arrivals = 0;        ///< SAT arrivals at a station
  std::uint64_t sat_holds = 0;           ///< SAT held by an unsatisfied station
  std::uint64_t sat_rounds = 0;          ///< completed rotations (station 0)
  std::uint64_t data_transmissions = 0;  ///< local injections
  /// Local injections per TrafficClass (real-time, assured, best-effort).
  std::array<std::uint64_t, 3> tx_by_class{};
  std::uint64_t transit_forwards = 0;
  std::uint64_t frames_lost_link = 0;    ///< frames dropped on a broken hop
  /// In-flight frames discarded when a re-formation (join update phase,
  /// cut-out, ring rebuild) resets the data plane — kept apart from
  /// frames_lost_link so link-quality metrics aren't inflated by
  /// membership churn.
  std::uint64_t frames_lost_rebuild = 0;
  /// In-flight frames discarded by a *successful join's* update phase
  /// (Section 2.4.1 resets the data plane when the ring gains a member).
  /// Kept apart from frames_lost_rebuild so recovery-casualty metrics
  /// aren't polluted by planned, healthy growth.
  std::uint64_t frames_lost_churn = 0;
  std::uint64_t frames_dropped_stale = 0;///< destination left the ring
  std::uint64_t control_messages_lost = 0;  ///< NEXT_FREE/JOIN_REQ/JOIN_ACK
  std::uint64_t join_retries = 0;        ///< backoffs after a lost handshake
  std::uint64_t joins_abandoned = 0;     ///< gave up after max attempts
  std::uint64_t sat_losses_detected = 0;
  std::uint64_t sat_recoveries = 0;      ///< successful SAT_REC cut-outs
  std::uint64_t cut_outs = 0;            ///< stations cut by a SAT_REC
  /// Cut-outs whose victim was demonstrably alive and reachable at the cut
  /// (a stale SAT_REC claimed it) — the failure mode the RecoveryFsm guard
  /// window exists to eliminate; the chaos gate asserts 0 under guard.
  std::uint64_t spurious_cutouts = 0;
  std::uint64_t ring_rebuilds = 0;
  std::uint64_t raps_started = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t joins_rejected = 0;
  std::uint64_t leaves_completed = 0;
  sim::SampleStats sat_loss_detection_slots;  ///< actual loss -> detection
  sim::SampleStats recovery_total_slots;      ///< actual loss -> SAT restored
  sim::SampleStats join_latency_slots;        ///< request -> in ring
  std::uint64_t cdma_collisions = 0;
  /// Fidelity mode: headers that failed the encode/decode round trip
  /// (must stay 0; a CRC/codec bug would show here).
  std::uint64_t header_decode_failures = 0;
  /// Time-weighted fraction of ring links carrying a frame (spatial-reuse
  /// utilisation, 0..1); sample with ring_utilization().
  sim::TimeWeightedStats busy_links;
};

/// Where the SAT (or SAT_REC) currently is.
enum class SatState : std::uint8_t {
  kInTransit,  ///< travelling a link; arrives at `arrival_tick`
  kHeld,       ///< seized by a not-satisfied station (or a station in RAP)
  kLost,       ///< dropped (injected fault or broken link); timers running
  kRebuilding, ///< ring re-formation downtime in progress
};

/// Shard-confined: one engine is one federation shard, driven by exactly
/// one thread.  Independent engines on independent threads are safe (the
/// process-wide MetricRegistry they all flush into is atomic/lock-guarded;
/// see tests/concurrency/shard_smoke_test.cpp), but every entry point
/// below — stepping, membership (request_join / request_leave /
/// kill_station), and the fault plane (stall_station, degrade_link,
/// drop_control_once) — must be called from the engine's owning thread.
/// Cross-shard interaction goes through value-type gateway messages, never
/// by poking another shard's engine (lint rule `cross-shard-handle`).
class WRT_SHARD_CONFINED Engine final {
 public:
  /// `topology` must outlive the engine; the engine mutates liveness when
  /// stations are killed and reads reachability every slot.
  Engine(phy::Topology* topology, Config config, std::uint64_t seed);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Builds the virtual ring, assigns CDMA codes, initialises stations and
  /// launches the SAT.  Must be called exactly once before step().
  [[nodiscard]] util::Status init();

  // -- traffic ------------------------------------------------------------

  /// Attaches a stochastic source; packets arrive at spec.src's queues.
  void add_source(const traffic::FlowSpec& spec);

  /// Attaches an always-backlogged source at spec.src (keeps the class
  /// queue topped up to `backlog` packets every slot).
  void add_saturated_source(const traffic::FlowSpec& spec,
                            std::size_t backlog = 4);

  /// Replays a recorded/synthetic trace (video GOPs, voice spurts, ...) as
  /// one flow from `src` to `dst`.
  void add_trace_source(traffic::Trace trace, FlowId flow, NodeId src,
                        NodeId dst, std::int64_t deadline_slots = 0);

  /// Direct injection for tests; returns false if the queue is full or the
  /// station is not in the ring.
  // wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
  bool inject_packet(traffic::Packet packet);

  // -- execution ----------------------------------------------------------

  /// Advances one MAC slot.
  void step();

  /// Advances `n` slots.
  void run_slots(std::int64_t n);

  [[nodiscard]] Tick now() const noexcept { return now_; }
  [[nodiscard]] std::int64_t now_slots() const noexcept {
    return ticks_to_slots(now_);
  }

  // -- topology change & fault injection -----------------------------------

  /// Registers `node` (already placed in the topology) as wanting to join;
  /// it starts listening for NEXT_FREE broadcasts (Section 2.4.1).
  void request_join(NodeId node, Quota quota);

  /// Graceful leave (Section 2.4.2): the station announces its exit via its
  /// successor, which runs the SAT_REC cut-out.
  [[nodiscard]] util::Status request_leave(NodeId node);

  /// Kills a station without notice (battery out): it stops forwarding
  /// everything; detection happens via SAT_TIMER (Section 2.5).
  void kill_station(NodeId node);

  /// Wedges a station (hung process, stuck radio): unlike kill_station it
  /// stays alive in the topology but forwards neither frames nor the SAT,
  /// so the ring sees the same symptoms as a crash — until resume_station.
  void stall_station(NodeId node);

  /// Un-wedges a stalled station.  If the ring cut it out in the meantime
  /// and auto_rejoin is on, it re-enters through the normal join procedure.
  void resume_station(NodeId node);
  [[nodiscard]] bool station_stalled(NodeId node) const noexcept {
    return node < stalled_.size() && stalled_[node] != 0;
  }

  /// Drops the SAT the next time it crosses a link (transient control loss).
  void drop_sat_once() noexcept { drop_sat_pending_ = true; }

  /// Join-handshake messages (Section 2.4.1) that the fault plane can kill.
  enum class ControlMsg : std::uint8_t {
    kNextFree = 0,
    kJoinReq = 1,
    kJoinAck = 2,
  };

  /// Drops the next transmission of the given handshake message (one-shot,
  /// like drop_sat_once).  The affected joiner backs off and retries.
  void drop_control_once(ControlMsg which) noexcept {
    drop_control_pending_[static_cast<std::size_t>(which)] = true;
  }

  /// Overrides the Gilbert–Elliott loss process on the (undirected) link
  /// a <-> b for every purpose — data frames, SAT hops, and control
  /// messages all degrade together, as a fading radio link would.
  void degrade_link(NodeId a, NodeId b, const fault::GeParams& params);

  /// Removes a degrade_link override; the link reverts to channel defaults.
  void heal_link(NodeId a, NodeId b);

  // -- operator-forced protection switching (RecoveryFsm, DESIGN.md §14) ----

  /// Forces `node` out of the ring through the graceful-leave machinery and
  /// holds it out until clear_force_switch; re-admission then waits out the
  /// WTB hold-off (Config::wtb_slots).  Fails on a duplicate force or when
  /// the leave cannot start (ring too small, another leave pending).
  [[nodiscard]] util::Status force_switch(NodeId node);

  /// Releases an operator-forced switch; `node` becomes eligible for
  /// re-admission once it has stayed healthy for wtb_slots.
  void clear_force_switch(NodeId node);

  /// The recovery state machine (observers: state, counters, MTTR samples).
  [[nodiscard]] const RecoveryFsm& recovery_fsm() const noexcept {
    return fsm_;
  }

  // -- observers ------------------------------------------------------------

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ring::VirtualRing& virtual_ring() const noexcept {
    return ring_;
  }

  /// Time-averaged fraction of ring links busy with a frame since start —
  /// the spatial-reuse utilisation the capacity experiments report.
  /// (Non-const: flushes the running time-weighted segment.)
  [[nodiscard]] double ring_utilization() {
    return stats_.busy_links.time_average(now_);
  }
  [[nodiscard]] SatState sat_state() const noexcept { return sat_state_; }
  [[nodiscard]] bool in_rap() const noexcept { return rap_end_ > now_; }

  /// Station accessor (by node id); throws when not in the ring.  Returns a
  /// value-type view into the slot kernel's arrays — valid until the next
  /// membership change.
  [[nodiscard]] Station station(NodeId node) const;

  /// Updates a station's quota at runtime (quota renegotiation after
  /// admissions, releases, or a cut-out's quota being re-assigned,
  /// Section 2.5).  The new quota takes effect at the next SAT release.
  void set_station_quota(NodeId node, Quota quota);

  /// Per-station Diffserv split (Section 2.3): reserves `k1` of the
  /// station's k quota for Assured traffic.  Independent of the global
  /// Config::k1_assured default and of every other station.
  void set_station_split(NodeId node, std::uint32_t k1_assured);

  /// Current analytical parameters (S, T_rap, quotas) matching this ring —
  /// feed these to analysis::sat_time_bound & friends.
  [[nodiscard]] analysis::RingParams ring_params() const;

  /// Per-station SAT inter-arrival history (most recent last, bounded);
  /// used by the Theorem-2 property tests and the check:: oracles.
  [[nodiscard]] const std::vector<Tick>& sat_arrival_history(NodeId node) const;

  /// Admission check used by the join handshake and the gateway: would the
  /// ring extended by `extra` still satisfy every admitted deadline?
  /// (Conservative: checks the Theorem-1 bound against `max_sat_time_goal_`.)
  [[nodiscard]] bool admission_allows(Quota extra) const;

  /// Sets the delay goal (slots) used by admission control; 0 disables
  /// admission rejection.
  void set_max_sat_time_goal(std::int64_t slots) noexcept {
    max_sat_time_goal_ = slots;
  }

  /// Membership-change notification: invoked with (node, joined) after a
  /// station enters the ring (join, rebuild recruit) or leaves it (cut-out,
  /// graceful leave, rebuild exclusion).  Admission controllers subscribe
  /// to keep session registries and quota allocations in sync with the
  /// ring.  Pass nullptr to unsubscribe.
  using MembershipCallback = std::function<void(NodeId, bool joined)>;
  void set_membership_callback(MembershipCallback callback) {
    membership_callback_ = std::move(callback);
  }

  /// Delivery observation hook: invoked after every frame absorption (both
  /// the literal slot loop and the event-driven fast regime route through
  /// the same deliver()) with the absorbed packet, the absorbing station
  /// and the current tick.  The federation layer uses it to tap
  /// gateway-bound crossings without polling per-station sinks.  Unset
  /// (the default) it costs one branch per delivery.  Pure observation:
  /// the callback must not re-enter the engine, and in a federation it
  /// must touch only its own shard's state.
  using DeliveryTap = std::function<void(const traffic::Packet&, NodeId, Tick)>;
  void set_delivery_tap(DeliveryTap tap) { delivery_tap_ = std::move(tap); }

  [[nodiscard]] const cdma::CodeMap& codes() const noexcept { return codes_; }

  /// Attaches a telemetry event journal (nullptr detaches).  While attached
  /// the engine records every protocol event (SAT launch and loss, SAT_REC,
  /// cut-outs, re-formation, RAPs, joins, leaves, stalls), SAT residency,
  /// transmissions and deliveries into per-station rings, and — when
  /// `queue_sample_every_slots` > 0 — samples every station's queue depth on
  /// that cadence.  Observation only: attaching a journal never changes
  /// protocol behaviour, and with no journal attached the per-event cost is
  /// one pointer test.  The journal must outlive the engine or be detached.
  void set_journal(telemetry::Journal* journal,
                   std::int64_t queue_sample_every_slots = 0) noexcept {
    journal_ = journal;
    journal_queue_sample_slots_ = queue_sample_every_slots;
  }

  /// Fills `meta` (S, T_rap, per-station quotas) for offline bound
  /// evaluation; Journal::set_meta + save make a self-contained artifact.
  [[nodiscard]] telemetry::RingMeta journal_meta() const;

  /// Frames currently travelling ring links (plus any busy transit
  /// register).  Closes the accounting identity the chaos soak asserts:
  /// data_transmissions == delivered + frames_lost_link +
  /// frames_lost_rebuild + frames_lost_churn + frames_dropped_stale +
  /// frames_in_flight().
  [[nodiscard]] std::uint64_t frames_in_flight() const noexcept;

  /// Internal-consistency audit (counters within quotas, ring/link/station
  /// structures aligned, SAT state coherent, frame accounting leak-free).
  /// Returns the first violation found; tests and the monkey harness call
  /// this between steps.
  [[nodiscard]] util::Status check_invariants() const;

  /// External audit hook (see check::InvariantAuditor).  Invoked with an
  /// event tag after every membership event (init, join, cut-out, graceful
  /// leave, ring re-formation) and — in audit builds only (WRT_AUDIT_LEVEL,
  /// util/audit.hpp) — every `every_k_slots` slots.  In release builds the
  /// periodic call compiles out entirely; the membership-event call costs
  /// one branch on a rare path.  Pass nullptr to detach.
  using AuditHook = std::function<void(const char* event)>;
  void set_audit_hook(AuditHook hook, std::int64_t every_k_slots = 0) {
    audit_hook_ = std::move(hook);
    audit_every_slots_ = every_k_slots;
  }

 private:
  friend class ::wrt::check::InvariantAuditor;
  friend struct ::wrt::check::EngineTestHook;
  friend class RecoveryFsm;  // sole caller of start_recovery/start_rebuild

  struct SatSignal {
    bool is_rec = false;          ///< SAT_REC rather than plain SAT
    bool graceful_leave = false;  ///< SAT_REC triggered by a voluntary leave
    NodeId rec_origin = kInvalidNode;   ///< station that generated SAT_REC
    NodeId rec_failed = kInvalidNode;   ///< station being cut out
    NodeId rap_owner = kInvalidNode;    ///< RAP mutex flag (Section 2.4.1)
  };

  struct PendingJoin {
    Quota quota{1, 1};
    Tick requested_at = 0;
    // NEXT_FREE table: ingress -> its announced successor (Section 2.4.1).
    util::FlatMap<NodeId, NodeId> heard;
    NodeId chosen_ingress = kInvalidNode;
    bool table_complete = false;
    // Lossy-handshake retry state: `attempts` counts lost JOIN_REQ/ACK
    // exchanges; until `backoff_until` the joiner ignores NEXT_FREE.
    std::uint32_t attempts = 0;
    Tick backoff_until = 0;
  };

  // --- slot phases ---
  void poll_traffic();
  void data_plane_step();
  void sat_plane_step();
  void rap_step();
  void check_sat_timers();

  // --- event-driven data-plane fast regime ---
  //
  // While the data plane is fault-free (every member active, every hop
  // reachable, no data-loss process armed, no fidelity channel) and the hop
  // latency is one slot, "every in-flight frame advances one link per slot"
  // is a global rotation: rotating the kernel's logical->physical column
  // map stands in for moving the frames, and the only per-slot work left is
  // the slot's events — deliveries/stale purges (precomputed into a slot
  // calendar at injection time) and Send-algorithm injections (walked off
  // the kernel's eligibility bitmap).  Per-slot cost is O(events), not
  // O(ring + in-flight).  Any premise breaking (fault, stall, churn,
  // depth > 1) falls back to the per-position loops below, which reproduce
  // the protocol literally — so fault slots are byte-identical by
  // construction, and clean slots are checked against the same --digest
  // oracle.
  void fast_data_plane_step();
  /// (Re)derives the slot calendar and eligibility bitmap from the current
  /// in-flight frames; stamps the epoch key the fast regime is valid for.
  void build_fast_plan();
  /// Restores per-frame hops/arrival (not maintained while the rotation
  /// regime is active) from entered_ring and now_; idempotent, called when
  /// falling back to the per-position loops and before any external
  /// observer reads frame state.
  void materialize_frame_view();
  /// Observer-facing materialization (see check::InvariantAuditor).
  void sync_frame_view() const {
    const_cast<Engine*>(this)->materialize_frame_view();
  }

  // --- SAT handling ---
  void sat_arrive(NodeId at);
  void sat_release(NodeId from);
  void launch_sat(NodeId at);
  void start_recovery(NodeId detector);
  void start_rebuild();
  void finish_rebuild();

  // --- RAP / join ---
  [[nodiscard]] bool wants_rap(NodeId node) const;
  void begin_rap(NodeId ingress);
  void finish_rap();
  void complete_join(NodeId joiner, NodeId ingress);
  /// RecoveryFsm admission callback: files the auto_rejoin PendingJoin for
  /// a station whose WTR/WTB hold-off lapsed (no-op if already joining or
  /// back in the ring).
  void queue_rejoin(NodeId node, Quota quota);

  // --- helpers ---
  void notify_audit(const char* event) {
    if (audit_hook_) audit_hook_(event);
  }
  /// Journal append guarded by attachment; one pointer test when detached.
  void journal_record(NodeId station, telemetry::JournalKind kind,
                      std::uint32_t arg = 0, std::uint64_t value = 0) {
    if (journal_ != nullptr) journal_->record(station, kind, now_, arg, value);
  }
  void maybe_sample_queues();
  void maybe_periodic_audit();
  /// Rebuilds the per-position liveness/reachability caches when their
  /// (topology version, membership epoch, stall epoch) key went stale.
  void refresh_hot_caches();
  /// Which casualty counter a data-plane teardown charges its in-flight
  /// frames to: recovery paths (cut-out, ring re-formation) indict the
  /// failure machinery, a join's update phase is planned churn.
  enum class TeardownCause : std::uint8_t { kRecovery, kJoin };
  void drop_in_flight_frames(TeardownCause cause = TeardownCause::kRecovery);
  /// Alive in the topology and not wedged — the liveness test every plane
  /// applies (a stalled station is present but silent).
  [[nodiscard]] bool station_active(NodeId node) const noexcept {
    return topology_->alive(node) &&
           (node >= stalled_.size() || stalled_[node] == 0);
  }
  /// Consumes a one-shot drop_control_once flag.
  [[nodiscard]] bool take_control_drop(ControlMsg which) noexcept {
    bool& flag = drop_control_pending_[static_cast<std::size_t>(which)];
    const bool armed = flag;
    flag = false;
    return armed;
  }
  /// Lost JOIN_REQ/JOIN_ACK bookkeeping: bump the retry counter, enter
  /// exponential backoff, abandon cleanly past the attempt budget.
  void register_join_backoff(NodeId joiner);
  [[nodiscard]] std::int64_t effective_sat_timeout(NodeId node) const;
  [[nodiscard]] Quota quota_for_position(std::size_t position) const;
  void record_rotation(std::size_t position, Tick arrival);
  void assign_codes();
  void deliver(LinkFrame& frame, NodeId at);
  [[nodiscard]] bool data_allowed() const noexcept;

  // --- position-indexed membership maintenance ---
  /// Ring position of `node`, or -1 when it is not a member.
  [[nodiscard]] std::int32_t station_position(NodeId node) const noexcept;
  /// Rebuilds position_index_ from ring_ and bumps membership_epoch_.
  void rebuild_position_index();
  /// Resizes links_/transit_regs_ to the ring and empties them.
  void reset_data_plane();
  /// Inserts `joiner` (with its station/control state) right after
  /// `ingress`, keeping kernel columns and ring order aligned.
  void insert_member(NodeId ingress, NodeId joiner, Quota quota);
  /// Removes the member at `position` from the ring and all kernel columns.
  void erase_member(std::size_t position);

  phy::Topology* topology_;
  Config config_;
  std::uint64_t seed_;
  Tick now_ = 0;
  bool initialised_ = false;

  ring::VirtualRing ring_;
  cdma::CodeMap codes_;

  // Structure-of-arrays per-position storage (see the header comment):
  // station counters, class queues, SAT timers, link pipelines and transit
  // registers, one dense column per field, all kept in lockstep with the
  // ring order by the membership paths.
  SlotKernel kernel_;
  std::vector<std::int32_t> position_index_;  ///< NodeId -> position, -1 out
  std::uint64_t membership_epoch_ = 1;

  // Per-position liveness and next-hop reachability, cached off the
  // topology so the data plane does not re-derive unit-disk geometry and
  // failed-link sets every slot.  Exact: keyed on (topology version,
  // membership epoch, stall epoch), all of which bump on every mutation
  // the cached predicates depend on.
  std::vector<std::uint8_t> active_cache_;
  std::vector<std::uint8_t> link_ok_cache_;
  std::uint64_t cache_topology_version_ = ~std::uint64_t{0};
  std::uint64_t cache_membership_epoch_ = 0;
  std::uint64_t cache_stall_epoch_ = ~std::uint64_t{0};
  std::uint64_t stall_epoch_ = 0;  ///< bumped by stall/resume
  bool all_active_ok_ = false;     ///< refresh_hot_caches: no stalled/dead member
  bool all_links_ok_ = false;      ///< refresh_hot_caches: every hop reachable

  // Event-driven fast regime (see the private-method comment block).
  // calendar_[slot % (R + 3)] holds the frames whose one terminal event
  // (delivery at the destination, or stale purge after R + 1 hops) lands in
  // that slot; `column` is the frame's physical link column, fixed for its
  // whole flight under the rotation representation.
  struct DataEvent {
    std::uint32_t column;
    std::uint32_t position;  ///< arrival position (slow-loop visit order)
    bool stale;
  };
  std::vector<std::vector<DataEvent>> calendar_;
  std::uint64_t fast_in_flight_ = 0;
  bool fast_valid_ = false;
  /// True while frames' hops/arrival fields lag behind the rotation regime.
  bool frames_view_stale_ = false;
  std::uint64_t fast_topology_version_ = 0;
  std::uint64_t fast_membership_epoch_ = 0;
  std::uint64_t fast_stall_epoch_ = 0;

  // Saturated-source fast poll: a bound needs a refill only after its
  // station transmitted, so the data plane records drained positions and
  // poll_traffic() visits just those — after one full pass has verified
  // every bound is topped up (and falls back whenever that base case or the
  // position map goes stale).
  std::vector<std::uint32_t> drained_positions_;
  std::vector<std::int32_t> position_to_saturated_;
  bool full_poll_pending_ = true;
  bool saturated_fast_ok_ = true;  ///< false: two bounds share a station
  std::uint64_t poll_epoch_ = 0;

  // SAT state.
  SatState sat_state_ = SatState::kLost;
  SatSignal sat_;
  NodeId sat_location_ = kInvalidNode;  ///< held-at or transit-destination
  Tick sat_arrival_tick_ = kNeverTick;
  Tick sat_hold_started_ = kNeverTick;  ///< seizure instant (kHeld only)
  Tick sat_lost_at_ = kNeverTick;       ///< ground-truth loss instant
  Tick rebuild_done_ = kNeverTick;
  Tick rec_deadline_ = kNeverTick;      ///< SAT_REC must return by this tick
  NodeId leave_pending_ = kInvalidNode; ///< graceful leave in progress
  NodeId rotation_anchor_ = kInvalidNode;  ///< station whose arrivals count rounds

  // RAP state.
  Tick rap_end_ = 0;
  Tick rap_ear_end_ = 0;
  NodeId rap_ingress_ = kInvalidNode;
  NodeId rap_accepted_joiner_ = kInvalidNode;

  // Joins.  Sorted by NodeId (deterministic NEXT_FREE scan order).
  util::FlatMap<NodeId, PendingJoin> pending_joins_;

  // Traffic.  Rate-limited and trace sources live in the arrival schedule,
  // which polls only the due ones; saturated sources refill on queue depth.
  struct BoundSaturated {
    traffic::SaturatedSource source;
    NodeId station;
    std::size_t backlog;
  };
  /// Tops the bound's class queue back up to its backlog.
  void refill_saturated(BoundSaturated& bound, std::size_t position);

  traffic::ArrivalSchedule arrivals_;
  std::vector<BoundSaturated> saturated_;
  std::vector<traffic::Packet> arrival_scratch_;

  // Fault plane.  link_loss_ owns every loss draw (per purpose, per
  // directed link); stalled_ is indexed by NodeId and grown on demand.
  bool drop_sat_pending_ = false;
  bool drop_control_pending_[3] = {false, false, false};
  fault::LinkLossField link_loss_;
  std::vector<std::uint8_t> stalled_;

  // Admission.
  std::int64_t max_sat_time_goal_ = 0;
  MembershipCallback membership_callback_;
  DeliveryTap delivery_tap_;

  // Correctness tooling (src/check/): membership events always notify an
  // attached hook; the per-slot cadence exists only in audit builds.
  AuditHook audit_hook_;
  std::int64_t audit_every_slots_ = 0;

  // Derived SAT timeout (Theorem 1 bound over the current ring), cached so
  // the per-slot timer scan does not recompute ring_params().  Invalidated
  // by every membership change and by quota renegotiation.
  mutable std::int64_t sat_timeout_cache_ = 0;
  mutable bool sat_timeout_dirty_ = true;

  // SAT-timer scan guard: the earliest expiry found by the last full
  // check_sat_timers() sweep.  last_sat_arrival only ever advances to now_
  // and the timeout is constant while the guard is valid, so no station can
  // expire before this tick and the O(R) sweep is skipped until it passes.
  // Invalidated whenever the effective timeout may change (membership
  // change, quota renegotiation).
  Tick sat_timer_guard_ = kNeverTick;
  bool sat_timer_guard_valid_ = false;

  // Recovery decision funnel (guard window, WTR/WTB hold-offs, revertive
  // re-insertion, request de-dup).  All-defaults tuning makes every call a
  // pass-through to the legacy actions — the digest-identity contract.
  RecoveryFsm fsm_;

  // CDMA fidelity channel (allocated only when config_.cdma_fidelity).
  std::unique_ptr<cdma::Channel<traffic::Packet>> channel_;

  EngineStats stats_;

  // Telemetry journal (opt-in; see set_journal).
  telemetry::Journal* journal_ = nullptr;
  std::int64_t journal_queue_sample_slots_ = 0;

#if WRT_TELEMETRY_LEVEL
  // Publishes stats_ and fsm_ counters and stages hot-path histograms;
  // flushed to the process-wide registry every kTelemetryFlushSlots slots,
  // at run_slots() return, on destruction and by every registry snapshot.
  // Declared last so its destructor's flush still reads live counters.
  static constexpr std::int64_t kTelemetryFlushSlots = 64;
  telemetry::TelemetryBatch telem_batch_;
#endif
};

}  // namespace wrt::wrtring
