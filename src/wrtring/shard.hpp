// One federation shard: a worker-thread-confined bundle of rings plus the
// Diffserv backbone segment that terminates crossings at those rings.
//
// A FederationShard owns everything its worker thread touches during an
// epoch — the ring engines (each WRT_SHARD_CONFINED per DESIGN.md §11),
// their private topologies, the backbone segment, the crossing routing
// tables and the delay accounting.  The only data that leaves the shard
// is a value-type FederationFrame posted into a Mailbox owned by the
// coordinator (drained by the destination shard next epoch), and the only
// data that enters is the read half of those mailboxes.  Everything here
// is therefore single-threaded by construction.  The only
// synchronization is the worker pool's go/done pair in
// FederationEngine::run_epochs: the coordinator's release of "go" makes
// its serial work happen-before the worker's run_epoch, and the worker's
// release decrement of "done" makes the epoch's writes happen-before
// the coordinator's reads once it acquires done == 0.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "diffserv/diffserv.hpp"
#include "phy/topology.hpp"
#include "util/flat_map.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/mailbox.hpp"

namespace wrt::wrtring {

/// Where a crossing flow leaves its source ring.  Registered on the shard
/// owning the source ring; consulted by the gateway delivery tap.
struct OutboundRoute {
  std::uint32_t src_ring = 0;  ///< global ring index of the egress ring
  std::uint32_t dst_ring = 0;  ///< global ring index of the ingress ring
  std::uint32_t dst_shard = 0;
  NodeId dst_station = kInvalidNode;
};

/// Where a crossing flow re-enters the ring fabric.  Registered on the
/// shard owning the destination ring; consulted when draining mailboxes
/// and when backbone egress is re-injected.
struct InboundRoute {
  std::uint32_t dst_ring = 0;  ///< global ring index
  std::size_t ring_slot = 0;   ///< index into this shard's ring list
  NodeId dst_station = kInvalidNode;
  NodeId gateway = kInvalidNode;  ///< injecting station (G1 of the dst ring)
};

/// Integer crossing counters; summed across shards between run_epochs
/// calls (exact — every worker has reported done) and folded into the
/// federation digest.
struct ShardCounters {
  std::uint64_t crossings_posted = 0;    ///< frames handed to a mailbox
  std::uint64_t crossings_received = 0;  ///< frames drained into the backbone
  std::uint64_t crossings_injected = 0;  ///< frames injected into a dst ring
  std::uint64_t crossings_delivered = 0; ///< final in-ring deliveries seen
  std::uint64_t crossing_drops = 0;      ///< unroutable or injection-refused
};

/// Shard-confined: run_epoch runs on the shard's worker; the serial
/// wiring helpers (FederationEngine::init) and the accessors run on the
/// coordinator between epochs, ordered by the pool's go/done signals.
class WRT_SHARD_CONFINED FederationShard {
 public:
  FederationShard(std::uint32_t index, std::uint32_t shard_count,
                  std::size_t backbone_hops, double backbone_service_rate,
                  std::size_t backbone_queue_capacity,
                  double backbone_premium_capacity);

  // -- serial wiring (FederationEngine::init, before any worker starts) --

  /// Transfers ownership of one ring (topology + engine) to the shard and
  /// installs the gateway delivery tap.  Returns the ring's slot index
  /// within this shard.
  std::size_t add_ring(std::uint32_t ring_index, NodeId gateway,
                       std::unique_ptr<phy::Topology> topology,
                       std::unique_ptr<Engine> engine);

  /// Wires the shard's mailbox views: `inbound[p]` carries frames from
  /// shard p to this shard, `outbound[d]` carries frames from this shard
  /// to shard d.  Pointers are owned by the coordinator.
  void set_mailboxes(std::vector<Mailbox*> inbound,
                     std::vector<Mailbox*> outbound);

  void add_outbound_route(FlowId flow, const OutboundRoute& route);
  void add_inbound_route(FlowId flow, const InboundRoute& route);

  // -- epoch execution (worker thread) -----------------------------------

  /// Runs one epoch: (1) injects last epoch's backbone egress into its
  /// destination rings, (2) drains inbound mailboxes (producer-shard
  /// order) into the backbone, (3) steps the backbone epoch_slots slots,
  /// buffering egress for next epoch, (4) steps every ring engine
  /// epoch_slots slots (gateway taps post outbound frames).  Touches only
  /// shard-owned state plus the mailbox halves assigned to this shard.
  void run_epoch(std::int64_t epoch_slots);

  // -- accounting (coordinator, between epochs) ---------------------------

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t ring_count() const noexcept {
    return rings_.size();
  }
  [[nodiscard]] Engine& ring_engine(std::size_t slot) {
    return *rings_.at(slot).engine;
  }
  [[nodiscard]] const Engine& ring_engine(std::size_t slot) const {
    return *rings_.at(slot).engine;
  }
  [[nodiscard]] diffserv::BackboneSegment& backbone() noexcept {
    return backbone_;
  }
  [[nodiscard]] const diffserv::BackboneSegment& backbone() const noexcept {
    return backbone_;
  }
  [[nodiscard]] const ShardCounters& counters() const noexcept {
    return counters_;
  }
  /// End-to-end crossing delays (packet creation in the source ring to
  /// final delivery in the destination ring), integer ticks, in
  /// deterministic observation order.
  [[nodiscard]] const std::vector<Tick>& rt_crossing_delay_ticks()
      const noexcept {
    return rt_delay_ticks_;
  }
  [[nodiscard]] const std::vector<Tick>& be_crossing_delay_ticks()
      const noexcept {
    return be_delay_ticks_;
  }
  /// Thread-CPU nanoseconds this shard spent inside run_epoch, total and
  /// for the most recent epoch.  CLOCK_THREAD_CPUTIME_ID, so preemption
  /// by sibling workers on an undersized host does not inflate it.
  [[nodiscard]] std::int64_t busy_ns_total() const noexcept {
    return busy_ns_total_;
  }
  [[nodiscard]] std::int64_t last_epoch_busy_ns() const noexcept {
    return last_epoch_busy_ns_;
  }
  /// Crossing frames parked inside the shard (backbone queues + egress
  /// awaiting injection), for conservation accounting.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return backbone_.queue_depth() + pending_.size();
  }

 private:
  struct RingSlot {
    std::uint32_t ring_index = 0;
    NodeId gateway = kInvalidNode;
    std::unique_ptr<phy::Topology> topology;
    std::unique_ptr<Engine> engine;
  };

  /// Backbone egress buffered for injection at the next epoch boundary.
  struct PendingInject {
    std::size_t ring_slot = 0;
    traffic::Packet packet;
  };

  /// Delivery-tap body: posts gateway-delivered crossing packets to the
  /// destination shard's mailbox; records end-to-end delay on final
  /// delivery of an inbound crossing.
  void on_delivery(std::size_t slot, const traffic::Packet& packet,
                   NodeId at, Tick now);

  [[nodiscard]] traffic::Packet reconstruct(const FederationFrame& frame,
                                            const InboundRoute& route) const;

  std::uint32_t index_;
  std::uint32_t shard_count_;
  std::vector<RingSlot> rings_;
  diffserv::BackboneSegment backbone_;
  util::FlatMap<FlowId, OutboundRoute> outbound_;
  util::FlatMap<FlowId, InboundRoute> inbound_;
  std::vector<Mailbox*> inbound_mail_;   ///< [p] = shard p -> this shard
  std::vector<Mailbox*> outbound_mail_;  ///< [d] = this shard -> shard d
  std::vector<PendingInject> pending_;
  std::vector<traffic::Packet> egress_scratch_;
  ShardCounters counters_;
  std::vector<Tick> rt_delay_ticks_;
  std::vector<Tick> be_delay_ticks_;
  std::int64_t busy_ns_total_ = 0;
  std::int64_t last_epoch_busy_ns_ = 0;
};

}  // namespace wrt::wrtring
