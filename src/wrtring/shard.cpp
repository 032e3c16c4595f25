#include "wrtring/shard.hpp"

#include <cassert>
#include <ctime>
#include <utility>

namespace wrt::wrtring {

namespace {

/// CPU time consumed by the calling thread, in nanoseconds.  Used for the
/// per-shard busy accounting: unlike a wall clock it is not inflated when
/// sibling workers preempt this one on a host with fewer cores than
/// shards, so Σ_epochs max_shard(busy) is the run's critical path — the
/// wall time an adequately-cored host would see.
[[nodiscard]] std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

FederationShard::FederationShard(std::uint32_t index,
                                 std::uint32_t shard_count,
                                 std::size_t backbone_hops,
                                 double backbone_service_rate,
                                 std::size_t backbone_queue_capacity,
                                 double backbone_premium_capacity)
    : index_(index),
      shard_count_(shard_count),
      backbone_(backbone_hops, backbone_service_rate,
                backbone_queue_capacity, backbone_premium_capacity) {}

std::size_t FederationShard::add_ring(std::uint32_t ring_index,
                                      NodeId gateway,
                                      std::unique_ptr<phy::Topology> topology,
                                      std::unique_ptr<Engine> engine) {
  const std::size_t slot = rings_.size();
  engine->set_delivery_tap(
      [this, slot](const traffic::Packet& packet, NodeId at, Tick now) {
        on_delivery(slot, packet, at, now);
      });
  rings_.push_back(RingSlot{ring_index, gateway, std::move(topology),
                            std::move(engine)});
  return slot;
}

void FederationShard::set_mailboxes(std::vector<Mailbox*> inbound,
                                    std::vector<Mailbox*> outbound) {
  assert(inbound.size() == shard_count_);
  assert(outbound.size() == shard_count_);
  inbound_mail_ = std::move(inbound);
  outbound_mail_ = std::move(outbound);
}

void FederationShard::add_outbound_route(FlowId flow,
                                         const OutboundRoute& route) {
  outbound_[flow] = route;
}

void FederationShard::add_inbound_route(FlowId flow,
                                        const InboundRoute& route) {
  inbound_[flow] = route;
}

traffic::Packet FederationShard::reconstruct(
    const FederationFrame& frame, const InboundRoute& route) const {
  traffic::Packet packet;
  packet.flow = frame.flow;
  packet.cls = frame.cls;
  packet.src = route.gateway;  // injected into the dst ring at G1
  packet.dst = route.dst_station;
  packet.created = frame.created;
  packet.deadline = frame.deadline;
  packet.sequence = frame.sequence;
  return packet;
}

void FederationShard::on_delivery(std::size_t slot,
                                  const traffic::Packet& packet, NodeId at,
                                  Tick now) {
  const RingSlot& ring = rings_[slot];
  if (at == ring.gateway) {
    const auto out = outbound_.find(packet.flow);
    if (out != outbound_.end() && out->second.src_ring == ring.ring_index) {
      const OutboundRoute& route = out->second;
      FederationFrame frame;
      frame.flow = packet.flow;
      frame.cls = packet.cls;
      frame.src_ring = ring.ring_index;
      frame.dst_ring = route.dst_ring;
      frame.dst_station = route.dst_station;
      frame.created = packet.created;
      frame.gateway_out = now;
      frame.deadline = packet.deadline;
      frame.sequence = packet.sequence;
      outbound_mail_[route.dst_shard]->post(frame);
      ++counters_.crossings_posted;
      return;
    }
  }
  const auto in = inbound_.find(packet.flow);
  if (in != inbound_.end() && in->second.ring_slot == slot &&
      at == in->second.dst_station) {
    ++counters_.crossings_delivered;
    const Tick delay = now - packet.created;
    if (packet.cls == TrafficClass::kRealTime) {
      rt_delay_ticks_.push_back(delay);
    } else {
      be_delay_ticks_.push_back(delay);
    }
  }
}

void FederationShard::run_epoch(std::int64_t epoch_slots) {
  const std::int64_t t0 = thread_cpu_ns();

  // (1) Backbone egress buffered at the end of the previous epoch enters
  // its destination ring now, at the epoch boundary — the deterministic
  // injection point regardless of worker interleaving.
  for (const PendingInject& pending : pending_) {
    if (rings_[pending.ring_slot].engine->inject_packet(pending.packet)) {
      ++counters_.crossings_injected;
    } else {
      ++counters_.crossing_drops;  // dst gateway queue full
    }
  }
  pending_.clear();

  // (2) Frames posted by every shard last epoch, drained in producer-shard
  // order (fixed, so the backbone arrival order is thread-count
  // independent).
  for (std::uint32_t producer = 0; producer < shard_count_; ++producer) {
    for (const FederationFrame& frame : inbound_mail_[producer]->inbound()) {
      const auto route = inbound_.find(frame.flow);
      if (route == inbound_.end()) {
        ++counters_.crossing_drops;  // unroutable (no such crossing flow)
        continue;
      }
      backbone_.inject(reconstruct(frame, route->second));
      ++counters_.crossings_received;
    }
  }

  // (3) The backbone serves one slot per ring slot; whatever exits the
  // last hop this epoch waits for the next epoch boundary to enter its
  // destination ring (step 1 above).
  for (std::int64_t s = 0; s < epoch_slots; ++s) {
    egress_scratch_.clear();
    backbone_.step(egress_scratch_);
    for (traffic::Packet& packet : egress_scratch_) {
      const auto route = inbound_.find(packet.flow);
      if (route == inbound_.end()) {
        ++counters_.crossing_drops;
        continue;
      }
      pending_.push_back(PendingInject{route->second.ring_slot, packet});
    }
  }

  // (4) Every ring advances epoch_slots slots; gateway deliveries observed
  // by the taps post outbound frames into this shard's mailboxes.
  for (RingSlot& ring : rings_) ring.engine->run_slots(epoch_slots);

  const std::int64_t elapsed = thread_cpu_ns() - t0;
  last_epoch_busy_ns_ = elapsed;
  busy_ns_total_ += elapsed;
}

}  // namespace wrt::wrtring
