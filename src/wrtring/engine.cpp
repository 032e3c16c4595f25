#include "wrtring/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/audit.hpp"

namespace wrt::wrtring {

namespace {
constexpr std::size_t kArrivalHistoryCap = 64;

/// True when `node` is in the sorted vector (cold-path membership test used
/// by the rebuild paths; keeps associative containers out of this file).
bool sorted_contains(const std::vector<NodeId>& sorted, NodeId node) {
  return std::binary_search(sorted.begin(), sorted.end(), node);
}
}  // namespace

Engine::Engine(phy::Topology* topology, Config config, std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {
  assert(topology_ != nullptr);
  assert(config_.hop_latency_slots >= 1);
#if WRT_TELEMETRY_LEVEL
  // Each registry counter is published from the one field that counts it.
  using telemetry::CounterId;
  telemetry::TelemetryBatch& batch = telem_batch_;
  batch.publish(CounterId::kSlotsStepped,
                [this] { return static_cast<std::uint64_t>(now_slots()); });
  batch.publish(CounterId::kSatHandoffs, stats_.sat_hops);
  batch.publish(CounterId::kSatArrivals, stats_.sat_arrivals);
  batch.publish(CounterId::kSatHolds, stats_.sat_holds);
  batch.publish(CounterId::kTxRealTime, stats_.tx_by_class[0]);
  batch.publish(CounterId::kTxAssured, stats_.tx_by_class[1]);
  batch.publish(CounterId::kTxBestEffort, stats_.tx_by_class[2]);
  batch.publish(CounterId::kTransitForwards, stats_.transit_forwards);
  batch.publish(CounterId::kDeliveries,
                [this] { return stats_.sink.total_delivered(); });
  batch.publish(CounterId::kFramesLost, stats_.frames_lost_link);
  batch.publish(CounterId::kFramesLostRebuild, stats_.frames_lost_rebuild);
  batch.publish(CounterId::kFramesLostChurn, stats_.frames_lost_churn);
  batch.publish(CounterId::kControlMsgsLost, stats_.control_messages_lost);
  batch.publish(CounterId::kJoinRetries, stats_.join_retries);
  batch.publish(CounterId::kJoins, stats_.joins_completed);
  batch.publish(CounterId::kJoinsRejected, stats_.joins_rejected);
  batch.publish(CounterId::kLeaves, stats_.leaves_completed);
  batch.publish(CounterId::kCutOuts, stats_.cut_outs);
  batch.publish(CounterId::kSpuriousCutOuts, stats_.spurious_cutouts);
  batch.publish(CounterId::kSatLossesDetected, stats_.sat_losses_detected);
  batch.publish(CounterId::kSatRecoveries, stats_.sat_recoveries);
  batch.publish(CounterId::kRingRebuilds, stats_.ring_rebuilds);
  batch.publish(CounterId::kRapsStarted, stats_.raps_started);
  fsm_.publish_counters(batch);
#endif
}

util::Status Engine::init() {
  assert(!initialised_);
  if (const auto valid = config_.validate(); !valid.ok()) return valid;
  fsm_.bind(this, {config_.guard_slots, config_.wtr_slots, config_.wtb_slots,
                   config_.revertive});

  // With every loss process disabled the field makes zero RNG draws —
  // behaviour is bit-identical to a build without the fault plane.
  link_loss_.configure(config_.channel, seed_);
  auto ring_result =
      config_.members.empty()
          ? ring::build_ring(*topology_)
          : ring::build_ring_over(*topology_, config_.members);
  if (!ring_result.ok()) return ring_result.error();
  ring_ = std::move(ring_result.value());

  assign_codes();
  if (!cdma::verify_two_hop_distinct(*topology_, codes_)) {
    return util::Error::protocol_violation(
        "CDMA code assignment violates the distance-2 condition");
  }

  kernel_.clear();
  kernel_.configure(config_.queue_capacity);
  for (std::size_t p = 0; p < ring_.size(); ++p) {
    kernel_.push_station(ring_.station_at(p), quota_for_position(p),
                         config_.k1_assured, now_);
  }
  rebuild_position_index();
  reset_data_plane();
  rotation_anchor_ = ring_.station_at(0);

  if (config_.cdma_fidelity) {
    channel_ = std::make_unique<cdma::Channel<traffic::Packet>>(topology_);
    for (std::size_t p = 0; p < ring_.size(); ++p) {
      const NodeId node = ring_.station_at(p);
      channel_->set_listen_codes(node, {codes_[node], kBroadcastCode});
    }
  }

  initialised_ = true;
  launch_sat(ring_.station_at(0));
  notify_audit("init");
  return util::Status::success();
}

void Engine::assign_codes() {
  codes_ = cdma::assign_greedy_two_hop(*topology_);
}

Quota Engine::quota_for_position(std::size_t position) const {
  if (position < config_.station_quotas.size()) {
    return config_.station_quotas[position];
  }
  return config_.default_quota;
}

// ---------------------------------------------------------------------------
// Position-indexed membership maintenance
// ---------------------------------------------------------------------------

std::int32_t Engine::station_position(NodeId node) const noexcept {
  return node < position_index_.size() ? position_index_[node] : -1;
}

void Engine::rebuild_position_index() {
  position_index_.assign(topology_->node_count(), -1);
  const std::vector<NodeId>& order = ring_.order();
  for (std::size_t p = 0; p < order.size(); ++p) {
    position_index_[order[p]] = static_cast<std::int32_t>(p);
  }
  ++membership_epoch_;
  sat_timeout_dirty_ = true;
  sat_timer_guard_valid_ = false;
}

void Engine::reset_data_plane() {
  kernel_.reset_links(static_cast<std::size_t>(config_.hop_latency_slots));
  // Every teardown funnels through here: the slot calendar now describes
  // frames that no longer exist.
  fast_valid_ = false;
  frames_view_stale_ = false;
  fast_in_flight_ = 0;
}

void Engine::insert_member(NodeId ingress, NodeId joiner, Quota quota) {
  const std::size_t position = ring_.position_of(ingress) + 1;
  ring_.insert_after(ingress, joiner);
  kernel_.insert_station(position, joiner, quota, config_.k1_assured, now_);
  rebuild_position_index();
}

void Engine::erase_member(std::size_t position) {
  assert(position < ring_.size());
  const NodeId node = ring_.station_at(position);
  ring_.remove(node);
  kernel_.erase_station(position);
  // A departing RAP-round owner would leave the mutex flag dangling forever
  // (the flag is cleared only when the SAT completes a round back at the
  // owner), permanently blocking every future RAP.
  if (sat_.rap_owner == node) sat_.rap_owner = kInvalidNode;
  rebuild_position_index();
}

Station Engine::station(NodeId node) const {
  const std::int32_t position = station_position(node);
  if (position < 0) {
    throw std::out_of_range("Engine::station: node not in ring");
  }
  // The view is handed out for reading; Station's mutators exist for the
  // engine's own paths and the unit tests, which hold non-const kernels.
  return Station(const_cast<SlotKernel*>(&kernel_),
                 static_cast<std::uint32_t>(position));
}

void Engine::set_station_quota(NodeId node, Quota quota) {
  const std::int32_t position = station_position(node);
  if (position < 0) {
    throw std::out_of_range("Engine::set_station_quota: node not in ring");
  }
  kernel_.set_quota(static_cast<std::size_t>(position), quota);
  sat_timeout_dirty_ = true;
  sat_timer_guard_valid_ = false;
}

void Engine::set_station_split(NodeId node, std::uint32_t k1_assured) {
  const std::int32_t position = station_position(node);
  if (position < 0) {
    throw std::out_of_range("Engine::set_station_split: node not in ring");
  }
  const auto p = static_cast<std::size_t>(position);
  if (k1_assured > kernel_.quotas()[p].k) {
    throw std::invalid_argument(
        "Engine::set_station_split: k1 exceeds the station's k quota");
  }
  kernel_.set_k1_assured(p, k1_assured);
}

analysis::RingParams Engine::ring_params() const {
  analysis::RingParams params;
  params.ring_latency_slots = static_cast<std::int64_t>(ring_.size()) *
                              config_.effective_sat_hop_latency();
  params.t_rap_slots = config_.t_rap_slots();
  params.quotas = kernel_.quotas();
  return params;
}

telemetry::RingMeta Engine::journal_meta() const {
  telemetry::RingMeta meta;
  meta.ring_latency_slots = static_cast<std::int64_t>(ring_.size()) *
                            config_.effective_sat_hop_latency();
  meta.t_rap_slots = config_.t_rap_slots();
  meta.quotas.reserve(ring_.size());
  for (std::size_t p = 0; p < ring_.size(); ++p) {
    meta.quotas.emplace_back(ring_.station_at(p), kernel_.quotas()[p]);
  }
  return meta;
}

const std::vector<Tick>& Engine::sat_arrival_history(NodeId node) const {
  static const std::vector<Tick> kEmpty;
  const std::int32_t position = station_position(node);
  return position < 0
             ? kEmpty
             : kernel_.arrival_history_[static_cast<std::size_t>(position)];
}

bool Engine::admission_allows(Quota extra) const {
  if (max_sat_time_goal_ <= 0) return true;
  analysis::RingParams params = ring_params();
  params.ring_latency_slots += config_.effective_sat_hop_latency();
  params.quotas.push_back(extra);
  return analysis::sat_time_bound(params) <= max_sat_time_goal_;
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

void Engine::add_source(const traffic::FlowSpec& spec) {
  arrivals_.add(traffic::TrafficSource(spec, seed_ ^ (0xABCD1234u + spec.id)),
                spec.src);
}

void Engine::add_saturated_source(const traffic::FlowSpec& spec,
                                  std::size_t backlog) {
  for (const auto& other : saturated_) {
    // Two bounds on one station would need a per-position refill *list*;
    // keep the drained-position fast poll for the common one-bound shape.
    if (other.station == spec.src) saturated_fast_ok_ = false;
  }
  saturated_.push_back({traffic::SaturatedSource(spec), spec.src, backlog});
  full_poll_pending_ = true;
}

void Engine::add_trace_source(traffic::Trace trace, FlowId flow, NodeId src,
                              NodeId dst, std::int64_t deadline_slots) {
  arrivals_.add(
      traffic::TraceSource(std::move(trace), flow, src, dst, deadline_slots),
      src);
}

// wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
bool Engine::inject_packet(traffic::Packet packet) {
  const std::int32_t position = station_position(packet.src);
  if (position < 0) return false;
  return kernel_.enqueue(static_cast<std::size_t>(position),
                         std::move(packet));
}

void Engine::poll_traffic() {
  arrivals_.poll(
      now_, arrival_scratch_,
      [this](NodeId station, std::vector<traffic::Packet>& packets) {
        const std::int32_t position = station_position(station);
        for (auto& packet : packets) {
          // enqueue() moves only on acceptance, so a rejected (queue-full)
          // packet is still intact for drop attribution.
          if (position < 0 ||
              !kernel_.enqueue(static_cast<std::size_t>(position),
                               std::move(packet))) {
            stats_.sink.record_drop(packet);
          }
        }
      });
  if (saturated_.empty()) return;
  // A saturated bound needs a refill exactly when its queue depth dropped
  // below the backlog, and the only depth-reducing operation on the data
  // path is take_for_transmit — which both data-plane regimes record into
  // drained_positions_.  So after one full pass has verified every bound is
  // topped up, later slots refill just the drained stations.  Any escape
  // hatch (membership change, new bound, a refill that could not reach the
  // backlog, two bounds on one station) re-arms the full pass.
  if (!saturated_fast_ok_ || full_poll_pending_ ||
      poll_epoch_ != membership_epoch_) {
    poll_epoch_ = membership_epoch_;
    position_to_saturated_.assign(ring_.size(), -1);
    bool all_full = true;
    for (std::size_t i = 0; i < saturated_.size(); ++i) {
      auto& bound = saturated_[i];
      const std::int32_t position32 = station_position(bound.station);
      if (position32 < 0) continue;
      const auto position = static_cast<std::size_t>(position32);
      position_to_saturated_[position] = static_cast<std::int32_t>(i);
      refill_saturated(bound, position);
      all_full = all_full &&
                 kernel_.queue_depth(position, bound.source.spec().cls) >=
                     bound.backlog;
    }
    full_poll_pending_ = !all_full;
    drained_positions_.clear();
    return;
  }
  for (const std::uint32_t position : drained_positions_) {
    if (position >= position_to_saturated_.size()) continue;
    const std::int32_t i = position_to_saturated_[position];
    if (i < 0) continue;
    auto& bound = saturated_[static_cast<std::size_t>(i)];
    refill_saturated(bound, position);
    if (kernel_.queue_depth(position, bound.source.spec().cls) <
        bound.backlog) {
      full_poll_pending_ = true;  // queue at capacity: fall back next slot
    }
  }
  drained_positions_.clear();
}

void Engine::refill_saturated(BoundSaturated& bound, std::size_t position) {
  const std::size_t depth =
      kernel_.queue_depth(position, bound.source.spec().cls);
  if (depth >= bound.backlog) return;
  arrival_scratch_.clear();
  bound.source.take_into(now_, bound.backlog - depth, arrival_scratch_);
  for (auto& packet : arrival_scratch_) {
    (void)kernel_.enqueue(position, std::move(packet));
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Engine::step() {
  assert(initialised_);

  if (sat_state_ == SatState::kRebuilding) {
    if (now_ >= rebuild_done_) {
      finish_rebuild();
    }
  }

  poll_traffic();
  rap_step();
  if (sat_state_ != SatState::kRebuilding) {
    data_plane_step();
    sat_plane_step();
    check_sat_timers();
  }
  // Recovery timers (guard window, WTR/WTB hold-offs) run even through a
  // rebuild; with all-defaults tuning timers_active() is always false.
  if (fsm_.timers_active()) fsm_.tick(now_);
  if (journal_queue_sample_slots_ > 0) maybe_sample_queues();

  now_ += kTicksPerSlot;
#if WRT_TELEMETRY_LEVEL
  if ((now_slots() & (kTelemetryFlushSlots - 1)) == 0) telem_batch_.flush();
#endif
  WRT_AUDIT(maybe_periodic_audit());
}

void Engine::maybe_sample_queues() {
  if (now_slots() % journal_queue_sample_slots_ != 0) return;
  for (std::size_t p = 0; p < kernel_.size(); ++p) {
    const std::size_t depth =
        kernel_.queue_depth(p, TrafficClass::kRealTime) +
        kernel_.queue_depth(p, TrafficClass::kAssured) +
        kernel_.queue_depth(p, TrafficClass::kBestEffort);
    WRT_BATCH_OBSERVE(telem_batch_, kQueueDepth, depth);
    journal_record(kernel_.ids()[p], telemetry::JournalKind::kQueueDepth, 0,
                   static_cast<std::uint64_t>(depth));
  }
}

void Engine::maybe_periodic_audit() {
  if (audit_hook_ && audit_every_slots_ > 0 &&
      now_slots() % audit_every_slots_ == 0) {
    audit_hook_("periodic");
  }
}

void Engine::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
  // Publish counters and staged histograms so registry totals are exact
  // whenever a driving loop has handed control back.
  WRT_BATCH_FLUSH(telem_batch_);
}

bool Engine::data_allowed() const noexcept {
  // Section 2.4.1: during the RAP "transmissions are not allowed and hence
  // the network is idle" — no new injections (transit keeps draining).
  return !in_rap() && sat_state_ != SatState::kRebuilding;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Engine::deliver(LinkFrame& frame, NodeId at) {
  stats_.sink.record_delivery(frame.packet, now_);
  journal_record(at, telemetry::JournalKind::kDeliver, frame.packet.src);
  if (delivery_tap_) delivery_tap_(frame.packet, at, now_);
}

void Engine::refresh_hot_caches() {
  const std::uint64_t topology_version = topology_->version();
  if (cache_topology_version_ == topology_version &&
      cache_membership_epoch_ == membership_epoch_ &&
      cache_stall_epoch_ == stall_epoch_) {
    return;
  }
  const std::size_t R = ring_.size();
  const std::vector<NodeId>& order = ring_.order();
  active_cache_.resize(R);
  link_ok_cache_.resize(R);
  bool all_active = true;
  bool all_links = true;
  for (std::size_t p = 0; p < R; ++p) {
    active_cache_[p] = station_active(order[p]) ? 1 : 0;
    link_ok_cache_[p] =
        topology_->reachable(order[p], order[p + 1 == R ? 0 : p + 1]) ? 1 : 0;
    all_active = all_active && active_cache_[p] != 0;
    all_links = all_links && link_ok_cache_[p] != 0;
  }
  all_active_ok_ = all_active;
  all_links_ok_ = all_links;
  cache_topology_version_ = topology_version;
  cache_membership_epoch_ = membership_epoch_;
  cache_stall_epoch_ = stall_epoch_;
}

void Engine::data_plane_step() {
  const std::size_t R = ring_.size();
  if (R == 0) return;
  const Tick hop_ticks = slots_to_ticks(config_.hop_latency_slots);
  const std::vector<NodeId>& order = ring_.order();
  refresh_hot_caches();
  // Hoisted per slot: with the data-loss purpose entirely disabled, offer()
  // makes no RNG draw, so skipping the call is behaviour-identical.
  const bool data_loss_possible =
      link_loss_.enabled(fault::LossPurpose::kData);

  // Event-driven fast regime: with no fault machinery armed and a one-slot
  // hop, every clean slot is a pure rotation plus its scheduled events —
  // see the comment at the private method block.  Any premise breaking
  // falls through to the literal per-position loops below.
  const bool fast_ok = !config_.cdma_fidelity && !data_loss_possible &&
                       all_active_ok_ && all_links_ok_ &&
                       config_.hop_latency_slots == 1 &&
                       kernel_.link_depth() == 1 && kernel_.link_columns() == R;
  if (fast_ok) {
    if (!fast_valid_ || fast_membership_epoch_ != membership_epoch_ ||
        fast_topology_version_ != cache_topology_version_ ||
        fast_stall_epoch_ != stall_epoch_) {
      build_fast_plan();
    }
    if (fast_valid_) {
      fast_data_plane_step();
      return;
    }
  } else if (fast_valid_) {
    materialize_frame_view();
    fast_valid_ = false;
  }

  if (config_.cdma_fidelity) channel_->begin_slot(now_);

  // Phase 1: arrivals.  A frame sent last slot reaches the next station now;
  // the destination absorbs it (destination release, enabling spatial
  // reuse), everything else becomes this slot's transit load.
  for (std::size_t p = 0; p < R; ++p) {
    const std::size_t upstream = p == 0 ? R - 1 : p - 1;
    if (kernel_.link_empty(upstream)) continue;
    LinkFrame& frame = kernel_.link_front(upstream);
    if (frame.arrival > now_) continue;
    if (!active_cache_[p]) {
      kernel_.link_pop(upstream);
      ++stats_.frames_lost_link;
      continue;
    }
    const NodeId here = order[p];
    if (frame.packet.dst == here) {
      deliver(frame, here);
      kernel_.link_pop(upstream);
      continue;
    }
    ++frame.hops;
    if (frame.hops > R + 1) {
      // Destination is no longer a ring member; purge the stale frame.
      ++stats_.frames_dropped_stale;
      stats_.sink.record_drop(frame.packet);
      kernel_.link_pop(upstream);
      continue;
    }
    // One move, link slot -> transit register; the pop only rewinds the
    // cursor of the (now moved-from) slot.
    kernel_.transit(p) = std::move(frame);
    kernel_.transit(p).busy = true;
    kernel_.link_pop(upstream);
  }

  // Phase 2: transmissions.  A slot carrying transit is forwarded in the
  // same slot time (the slot structure rotates one position per slot); an
  // empty slot may be filled by a local packet per the Send algorithm.
  const bool injection_allowed = data_allowed();
  std::size_t busy_links_now = 0;
  LinkFrame inject_scratch;
  for (std::size_t p = 0; p < R; ++p) {
    LinkFrame* out = nullptr;
    if (kernel_.transit(p).busy) {
      out = &kernel_.transit(p);
      ++stats_.transit_forwards;
    } else if (injection_allowed && active_cache_[p]) {
      if (const auto cls = kernel_.eligible_class(p)) {
        traffic::Packet packet = kernel_.take_for_transmit(p, *cls);
        if (!saturated_.empty()) {
          drained_positions_.push_back(static_cast<std::uint32_t>(p));
        }
        const double delay = ticks_to_slots_real(now_ - packet.created);
        stats_.access_delay_slots.add(delay);
        if (packet.cls == TrafficClass::kRealTime) {
          stats_.rt_access_delay_slots.add(delay);
          WRT_BATCH_OBSERVE(telem_batch_, kRtAccessDelaySlots, delay);
        } else {
          WRT_BATCH_OBSERVE(telem_batch_, kBeAccessDelaySlots, delay);
        }
        ++stats_.tx_by_class[static_cast<std::size_t>(packet.cls)];
        journal_record(order[p], telemetry::JournalKind::kTransmit,
                       static_cast<std::uint32_t>(packet.cls),
                       static_cast<std::uint64_t>(now_ - packet.created));
        ++stats_.data_transmissions;
        inject_scratch.packet = std::move(packet);
        inject_scratch.entered_ring = now_;
        inject_scratch.hops = 0;
        inject_scratch.busy = true;
        out = &inject_scratch;
      }
    }
    if (out == nullptr) continue;

    if (!link_ok_cache_[p]) {
      out->busy = false;
      ++stats_.frames_lost_link;
      continue;
    }
    const NodeId sender = order[p];
    const NodeId receiver = order[p + 1 == R ? 0 : p + 1];
    if (data_loss_possible &&
        link_loss_.offer(fault::LossPurpose::kData, sender, receiver)) {
      out->busy = false;
      ++stats_.frames_lost_link;
      continue;
    }
    if (config_.cdma_fidelity) {
      // Fidelity mode also exercises the wire format: every hop's header
      // is serialised and re-parsed exactly as a receiver would.
      const auto decoded =
          ring::decode_header(ring::encode_packet_header(out->packet));
      if (!decoded.has_value()) ++stats_.header_decode_failures;
      channel_->transmit(sender, codes_[receiver], out->packet);
    }
    out->arrival = now_ + hop_ticks;
    // One move into the link column; the frame keeps busy=true there and
    // the moved-from register/scratch is cleared right after.
    if (!kernel_.link_push(p, std::move(*out))) {
      // Unreachable while the depth invariant holds; account, don't corrupt.
      out->busy = false;
      ++stats_.frames_lost_link;
      continue;
    }
    out->busy = false;
    ++busy_links_now;
  }
  stats_.busy_links.update(
      now_, static_cast<double>(busy_links_now) / static_cast<double>(R));

  if (config_.cdma_fidelity) {
    stats_.cdma_collisions += channel_->end_slot();
  }
}

// ---------------------------------------------------------------------------
// Data plane, event-driven fast regime
//
// Premise (checked every slot): hop latency one slot, depth-1 links, every
// member active, every hop reachable, no data-loss process, no fidelity
// channel.  Then each slot the slow loops above do exactly three things:
// advance every in-flight frame one link, absorb the frames whose terminal
// event (delivery, stale purge) falls due, and inject per the Send
// algorithm.  The advance becomes one rotation of the kernel's
// logical->physical column map; the terminal events were precomputed into
// calendar_ when the frame entered the ring (its physical column never
// changes under the rotation, so the event can name it years in advance);
// injections walk the kernel's Send-eligibility bitmap.  Per-slot work is
// O(deliveries + injections), independent of ring size and in-flight count.
//
// Digest equivalence is structural, not approximate: the fast step performs
// the same stats/journal/telemetry mutations in the same order as the slow
// loops (deliveries in ascending arrival-position order, then injections in
// ascending position order), makes zero RNG draws — just like the slow path
// under the same premises — and every slot where a premise fails runs the
// literal loops.  Frame hops/arrival fields are not maintained while the
// regime is active; materialize_frame_view() restores them (they are pure
// functions of entered_ring and now_) before anyone looks.
// ---------------------------------------------------------------------------

void Engine::build_fast_plan() {
  fast_valid_ = false;
  // Frames' cached view must be consistent before (or after) any regime
  // change; cheap no-op unless a fast regime just ended.
  materialize_frame_view();
  const std::size_t R = ring_.size();
  // A busy transit register between slots only exists via test-hook state
  // corruption; the rotation regime cannot represent it, so stay slow.
  for (std::size_t p = 0; p < R; ++p) {
    if (kernel_.transit_[p].busy) return;
  }
  const std::size_t buckets = R + 3;
  if (calendar_.size() != buckets) calendar_.resize(buckets);
  for (auto& bucket : calendar_) bucket.clear();

  const std::int64_t now_slot = now_slots();
  const auto sr = static_cast<std::int64_t>(R);
  fast_in_flight_ = 0;
  for (std::size_t p = 0; p < R; ++p) {
    if (kernel_.link_empty(p)) continue;
    const LinkFrame& frame = kernel_.link_front(p);
    // The frame on logical link p arrives at position p+1 this slot; that
    // arrival is its number `age` (it entered the ring `age` slots ago and
    // advances one link per slot).  The slow loop purges a frame at arrival
    // R+2 (hops would exceed R+1) and checks delivery before the hop count,
    // so when both fall on the same arrival the delivery wins.
    const std::int64_t arrive = p + 1 == R ? 0 : static_cast<std::int64_t>(p) + 1;
    const std::int64_t age = now_slot - ticks_to_slots(frame.entered_ring);
    std::int64_t j_stale = sr + 2 - age;
    if (j_stale < 0) j_stale = 0;
    const std::int32_t pd = station_position(frame.packet.dst);
    std::int64_t j;
    bool stale;
    if (pd >= 0 && (j = (pd - arrive + sr) % sr) <= j_stale) {
      stale = false;
    } else {
      j = j_stale;
      stale = true;
    }
    calendar_[static_cast<std::size_t>((now_slot + j) %
                                       static_cast<std::int64_t>(buckets))]
        .push_back({static_cast<std::uint32_t>(kernel_.link_col(p)),
                    static_cast<std::uint32_t>((arrive + j) % sr), stale});
    ++fast_in_flight_;
  }
  if (kernel_.eligible_bits_dirty_) kernel_.rebuild_eligible();
  fast_membership_epoch_ = membership_epoch_;
  fast_topology_version_ = cache_topology_version_;
  fast_stall_epoch_ = stall_epoch_;
  fast_valid_ = true;
}

void Engine::fast_data_plane_step() {
  const std::size_t R = ring_.size();
  const std::vector<NodeId>& order = ring_.order();
  const std::size_t buckets = R + 3;
  const std::int64_t now_slot = now_slots();

  // Every in-flight frame advances one link: rotate the column map.
  kernel_.rotate_links_one();

  // Terminal events due this slot.  Arrival positions within a slot are
  // unique (each column feeds one position), and the slow loop visits
  // arrivals in ascending position order — sort to reproduce its stats and
  // journal ordering exactly.
  auto& bucket =
      calendar_[static_cast<std::size_t>(now_slot) % buckets];
  if (!bucket.empty()) {
    std::sort(bucket.begin(), bucket.end(),
              [](const DataEvent& a, const DataEvent& b) {
                return a.position < b.position;
              });
    for (const DataEvent& ev : bucket) {
      LinkFrame& frame = kernel_.link_slots_[ev.column];  // depth 1
      if (ev.stale) {
        ++stats_.frames_dropped_stale;
        stats_.sink.record_drop(frame.packet);
      } else {
        deliver(frame, order[ev.position]);
      }
      frame.busy = false;
      kernel_.link_count_[ev.column] = 0;
      --fast_in_flight_;
    }
    bucket.clear();
  }

  // Every surviving frame was forwarded by the station it just reached.
  stats_.transit_forwards += fast_in_flight_;
  const std::uint64_t transit_now = fast_in_flight_;

  // Injections: walk the Send-eligibility bitmap in ascending position
  // order (word snapshot; set bits are re-verified so a stale bit can only
  // cost a check, never a wrong transmission).
  std::uint64_t injected_now = 0;
  if (data_allowed()) {
    auto& bits = kernel_.eligible_bits_;
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const std::size_t p =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (p >= R) break;
        const std::size_t c = kernel_.link_col(p);
        if (kernel_.link_count_[c] != 0) continue;  // carrying transit
        const auto cls = kernel_.eligible_class(p);
        if (!cls) {
          // Stale bit (test hooks mutate Send state behind the mutators).
          bits[w] &= ~(std::uint64_t{1} << (p & 63));
          continue;
        }
        traffic::Packet packet = kernel_.take_for_transmit(p, *cls);
        if (!saturated_.empty()) {
          drained_positions_.push_back(static_cast<std::uint32_t>(p));
        }
        const double delay = ticks_to_slots_real(now_ - packet.created);
        stats_.access_delay_slots.add(delay);
        if (packet.cls == TrafficClass::kRealTime) {
          stats_.rt_access_delay_slots.add(delay);
          WRT_BATCH_OBSERVE(telem_batch_, kRtAccessDelaySlots, delay);
        } else {
          WRT_BATCH_OBSERVE(telem_batch_, kBeAccessDelaySlots, delay);
        }
        ++stats_.tx_by_class[static_cast<std::size_t>(packet.cls)];
        journal_record(order[p], telemetry::JournalKind::kTransmit,
                       static_cast<std::uint32_t>(packet.cls),
                       static_cast<std::uint64_t>(now_ - packet.created));
        ++stats_.data_transmissions;
        const std::int32_t pd = station_position(packet.dst);
        LinkFrame& slot = kernel_.link_slots_[c];
        slot.packet = std::move(packet);
        slot.entered_ring = now_;
        slot.hops = 0;
        slot.arrival = now_ + kTicksPerSlot;
        slot.busy = true;
        kernel_.link_count_[c] = 1;
        ++fast_in_flight_;
        ++injected_now;
        // Schedule the frame's terminal event: delivery after the hop count
        // to its destination (a full circle when dst == src), or the stale
        // purge at arrival R+2 when the destination is not a member.
        const auto sr = static_cast<std::int64_t>(R);
        std::int64_t j;
        bool stale_ev;
        if (pd >= 0) {
          j = (pd - static_cast<std::int64_t>(p) - 1 + sr) % sr + 1;
          stale_ev = false;
        } else {
          j = sr + 2;
          stale_ev = true;
        }
        calendar_[static_cast<std::size_t>(
                      (now_slot + j) % static_cast<std::int64_t>(buckets))]
            .push_back({static_cast<std::uint32_t>(c),
                        static_cast<std::uint32_t>(
                            (static_cast<std::int64_t>(p) + j) % sr),
                        stale_ev});
      }
    }
  }

  stats_.busy_links.update(now_,
                           static_cast<double>(transit_now + injected_now) /
                               static_cast<double>(R));
  frames_view_stale_ = true;
}

void Engine::materialize_frame_view() {
  if (!frames_view_stale_) return;
  frames_view_stale_ = false;
  // Under the rotation regime a frame's hop count and arrival tick are pure
  // functions of when it entered the ring: it advances one link per slot,
  // so by `now_` it has completed (now - entered)/slot - 1 forwarding hops
  // and its pending arrival is due now.
  const std::size_t columns = kernel_.link_columns();
  for (std::size_t c = 0; c < columns; ++c) {
    if (kernel_.link_count_[c] == 0) continue;
    LinkFrame& frame = kernel_.link_slots_[c];  // depth 1 in this regime
    frame.hops = static_cast<std::uint32_t>(
        ticks_to_slots(now_ - frame.entered_ring) - 1);
    frame.arrival = now_;
  }
}

// ---------------------------------------------------------------------------
// SAT plane
// ---------------------------------------------------------------------------

void Engine::launch_sat(NodeId at) {
  sat_ = SatSignal{};
  sat_state_ = SatState::kHeld;
  sat_location_ = at;
  sat_lost_at_ = kNeverTick;
  for (Tick& arrival : kernel_.last_sat_arrival_) arrival = now_;
  journal_record(at, telemetry::JournalKind::kSatLaunched);
  sat_arrive(at);
}

void Engine::record_rotation(std::size_t position, Tick arrival) {
  if (kernel_.last_rotation_arrival_[position] != kNeverTick) {
    const double rotation = ticks_to_slots_real(
        arrival - kernel_.last_rotation_arrival_[position]);
    stats_.sat_rotation_slots.add(rotation);
    WRT_BATCH_OBSERVE(telem_batch_, kSatRotationSlots, rotation);
  }
  kernel_.last_rotation_arrival_[position] = arrival;
  std::vector<Tick>& history = kernel_.arrival_history_[position];
  history.push_back(arrival);
  ++stats_.sat_arrivals;
  if (history.size() > kArrivalHistoryCap) {
    // Once per rotation per station: the 64-entry shift is cheaper than a
    // deque's allocation churn and keeps the history contiguous.
    history.erase(history.begin());
  }
  if (kernel_.ids_[position] == rotation_anchor_) ++stats_.sat_rounds;
}

void Engine::sat_arrive(NodeId at) {
  const std::int32_t position32 = station_position(at);
  if (position32 < 0 || !station_active(at)) {
    // Arrived at a station that just vanished: the signal is lost here.
    sat_state_ = SatState::kLost;
    if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
    return;
  }
  const auto position = static_cast<std::size_t>(position32);
  kernel_.last_sat_arrival_[position] = now_;
  record_rotation(position, now_);
  journal_record(at, telemetry::JournalKind::kSatArrive);

  if (sat_.is_rec && at == sat_.rec_origin) {
    // Section 2.5: the SAT_REC made it back — the ring is re-established;
    // substitute it with a plain SAT.
    if (sat_.graceful_leave) {
      ++stats_.leaves_completed;
      journal_record(at, telemetry::JournalKind::kLeave, sat_.rec_failed);
    } else {
      ++stats_.sat_recoveries;
      if (sat_lost_at_ != kNeverTick) {
        const double rec = ticks_to_slots_real(now_ - sat_lost_at_);
        stats_.recovery_total_slots.add(rec);
        WRT_OBSERVE(kSatRecSlots, rec);
      }
    }
    journal_record(at, telemetry::JournalKind::kSatRecDone, sat_.rec_failed);
    fsm_.on_recovery_complete(now_, sat_lost_at_ != kNeverTick
                                        ? ticks_to_slots_real(now_ -
                                                              sat_lost_at_)
                                        : -1.0);
    sat_.is_rec = false;
    sat_.rec_origin = kInvalidNode;
    sat_.rec_failed = kInvalidNode;
    sat_.graceful_leave = false;
    sat_lost_at_ = kNeverTick;
    rec_deadline_ = kNeverTick;
  }

  // RAP mutex: the owner clears the flag when the SAT completes the round.
  if (sat_.rap_owner == at) sat_.rap_owner = kInvalidNode;

  // Graceful leave: the successor of a leaving station converts the SAT
  // into a SAT_REC (Section 2.4.2).  A pending leave becomes moot when a
  // concurrent recovery already cut the leaver out.
  if (leave_pending_ != kInvalidNode && !ring_.contains(leave_pending_)) {
    leave_pending_ = kInvalidNode;
  }
  if (leave_pending_ != kInvalidNode && !sat_.is_rec &&
      at == ring_.successor(leave_pending_)) {
    sat_.is_rec = true;
    sat_.graceful_leave = true;
    sat_.rec_origin = at;
    sat_.rec_failed = leave_pending_;
    rec_deadline_ = now_ + slots_to_ticks(effective_sat_timeout(at));
    leave_pending_ = kInvalidNode;
    fsm_.on_graceful_leave(at, sat_.rec_failed, now_);
  }

  // RAP entry (Section 2.4.1): one station per round, guarded by the mutex.
  if (!sat_.is_rec && sat_.rap_owner == kInvalidNode && !in_rap() &&
      wants_rap(at)) {
    begin_rap(at);
    return;  // SAT held for the duration of the RAP.
  }

  // SAT algorithm (Section 2.2): forward when satisfied, else hold.
  sat_location_ = at;
  if (kernel_.satisfied(position)) {
    sat_release(at);
  } else {
    sat_state_ = SatState::kHeld;
    sat_hold_started_ = now_;
    ++stats_.sat_holds;
  }
}

void Engine::sat_release(NodeId from) {
  if (sat_hold_started_ != kNeverTick) {
    stats_.sat_hold_slots.add(ticks_to_slots_real(now_ - sat_hold_started_));
    sat_hold_started_ = kNeverTick;
  }
  const std::int32_t from_position32 = station_position(from);
  assert(from_position32 >= 0);
  const auto from_position = static_cast<std::size_t>(from_position32);
  kernel_.on_sat_release(from_position);
  kernel_.last_sat_departure_[from_position] = now_;
  ++kernel_.rounds_since_rap_[from_position];

  const std::size_t R = ring_.size();
  NodeId target = ring_.order()[(from_position + 1) % R];
  bool rerouted = false;

  if (sat_.is_rec && target == sat_.rec_failed) {
    // Heal cancellation (guard mode only): the accused station is alive
    // again and the hop to it works — the SAT_REC is a stale claim left
    // over from a transient (the flapping-link case).  Withdrawing the
    // claim ends the protection episode right here (the ERPS semantic:
    // clearing the defect stops the switch): the REC reverts to a plain
    // SAT instead of burning another loop to its origin, which would
    // overrun the REC deadline and force a needless re-formation.
    bool heal_cancelled = false;
    if (fsm_.tuning().guard_slots > 0 && !sat_.graceful_leave &&
        station_active(target)) {
      refresh_hot_caches();
      heal_cancelled = link_ok_cache_[from_position] != 0;
    }
    if (heal_cancelled) {
      fsm_.on_stale_rec_cancelled(now_);
      ++stats_.sat_recoveries;
      if (sat_lost_at_ != kNeverTick) {
        const double rec = ticks_to_slots_real(now_ - sat_lost_at_);
        stats_.recovery_total_slots.add(rec);
        WRT_OBSERVE(kSatRecSlots, rec);
      }
      journal_record(from, telemetry::JournalKind::kSatRecDone,
                     sat_.rec_failed);
      fsm_.on_recovery_complete(
          now_, sat_lost_at_ != kNeverTick
                    ? ticks_to_slots_real(now_ - sat_lost_at_)
                    : -1.0);
      sat_.is_rec = false;
      sat_.rec_origin = kInvalidNode;
      sat_.rec_failed = kInvalidNode;
      sat_.graceful_leave = false;
      sat_lost_at_ = kNeverTick;
      rec_deadline_ = kNeverTick;
    } else {
      // This station plays the role of i-1: skip the failed station by
      // addressing i+1 directly with code i+1 (Section 2.5).
      const NodeId beyond = ring_.order()[(from_position + 2) % R];
      if (R <= 3 || !topology_->reachable(from, beyond)) {
        // "station i-1 could be too far to directly reach station i+1":
        // the previous ring is no longer valid.
        fsm_.on_ring_unrepairable(now_);
        return;
      }
      const NodeId failed = target;
      const std::size_t failed_position = (from_position + 1) % R;
      const Quota failed_quota = kernel_.quota_[failed_position];
      const std::uint32_t failed_k1 = kernel_.k1_assured_[failed_position];
      const bool spurious = station_active(failed) && !sat_.graceful_leave;
      erase_member(failed_position);
      drop_in_flight_frames();
      // Re-anchor the round counter: a cut-out anchor would otherwise
      // freeze stats_.sat_rounds until a full rebuild.
      if (rotation_anchor_ == failed) rotation_anchor_ = beyond;
      target = beyond;
      rerouted = true;
      ++stats_.cut_outs;
      if (spurious) ++stats_.spurious_cutouts;
      journal_record(failed, telemetry::JournalKind::kCutOut,
                     sat_.rec_origin);
      if (membership_callback_) membership_callback_(failed, false);
      notify_audit(sat_.graceful_leave ? "leave" : "cut-out");
      // A station cut out by a SAT_REC re-enters through the normal join
      // procedure when configured to.  The FSM decides when: immediately
      // (legacy default) or after the WTR/WTB hold-off lapses.
      if (config_.auto_rejoin && config_.rap_policy != RapPolicy::kDisabled) {
        const bool forced = failed == fsm_.forced_station();
        if (fsm_.on_station_cut(failed, failed_quota, from, failed_k1,
                                forced, now_) == RecoveryFsm::Admit::kNow) {
          if (station_active(failed)) {
            PendingJoin rejoin;
            rejoin.quota = failed_quota;
            rejoin.requested_at = now_;
            pending_joins_[failed] = std::move(rejoin);
          }
        }
      }
    }
  }

  if (drop_sat_pending_) {
    drop_sat_pending_ = false;
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
    journal_record(from, telemetry::JournalKind::kSatLost, target);
    return;
  }
  // The un-rerouted handoff is exactly the cached ring-successor hop; a
  // cut-out reroute (rare) addresses a two-hop target the cache doesn't
  // cover.  Gating offer() on the purpose being armed is draw-free: a
  // disabled purpose makes zero RNG draws inside offer() anyway.
  bool target_reachable;
  if (rerouted) {
    target_reachable = topology_->reachable(from, target);
  } else {
    refresh_hot_caches();
    target_reachable = link_ok_cache_[from_position] != 0;
  }
  if (!target_reachable ||
      (link_loss_.enabled(fault::LossPurpose::kSat) &&
       link_loss_.offer(fault::LossPurpose::kSat, from, target))) {
    sat_state_ = SatState::kLost;
    if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
    journal_record(from, telemetry::JournalKind::kSatLost, target);
    return;
  }
  sat_state_ = SatState::kInTransit;
  sat_location_ = target;
  sat_arrival_tick_ =
      now_ + slots_to_ticks(config_.effective_sat_hop_latency());
  ++stats_.sat_hops;
  journal_record(from, telemetry::JournalKind::kSatRelease, target);
}

void Engine::sat_plane_step() {
  switch (sat_state_) {
    case SatState::kInTransit:
      if (now_ >= sat_arrival_tick_) sat_arrive(sat_location_);
      break;
    case SatState::kHeld: {
      const NodeId holder = sat_location_;
      if (in_rap() && holder == rap_ingress_) break;  // held for the RAP
      const std::int32_t position = station_position(holder);
      if (position < 0 || !station_active(holder)) {
        sat_state_ = SatState::kLost;
        if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
        break;
      }
      if (kernel_.satisfied(static_cast<std::size_t>(position))) {
        sat_release(holder);
      }
      break;
    }
    case SatState::kLost:
    case SatState::kRebuilding:
      break;
  }
}

std::int64_t Engine::effective_sat_timeout(NodeId) const {
  if (config_.sat_timeout_slots > 0) return config_.sat_timeout_slots;
  if (sat_timeout_dirty_) {
    sat_timeout_cache_ = analysis::sat_time_bound(ring_params());
    sat_timeout_dirty_ = false;
  }
  return sat_timeout_cache_;
}

void Engine::check_sat_timers() {
  if (sat_state_ == SatState::kRebuilding) return;

  // A pending SAT_REC that fails to return within SAT_TIME invalidates the
  // ring (Section 2.5, last paragraph).
  if (sat_.is_rec && rec_deadline_ != kNeverTick && now_ > rec_deadline_) {
    fsm_.on_rec_deadline(now_);
    return;
  }
  if (sat_.is_rec) return;  // recovery already in progress

  // Timer-scan guard: every last_sat_arrival_ write is `= now_` (monotone)
  // and the timeout is constant while the guard is valid (invalidated with
  // sat_timeout_dirty_), so the earliest possible expiry only moves later.
  // Skipping the O(R) scan until the cached earliest expiry has passed is
  // therefore exact, not an approximation.
  if (sat_timer_guard_valid_ && now_ <= sat_timer_guard_) return;

  // Earliest-expiry station detects the loss.  Stations run their timers
  // independently; the first expiry wins and generates the SAT_REC (ties
  // break toward the lowest NodeId, matching the historical scan order).
  const Tick timeout_ticks =
      slots_to_ticks(effective_sat_timeout(kInvalidNode));
  const std::vector<NodeId>& order = ring_.order();
  NodeId detector = kInvalidNode;
  Tick earliest = kNeverTick;
  Tick next_expiry = kNeverTick;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const NodeId node = order[p];
    // A wedged station's timer process is wedged with it — only active
    // stations can detect the loss.
    if (!station_active(node)) continue;
    const Tick expiry = kernel_.last_sat_arrival_[p] + timeout_ticks;
    if (expiry < next_expiry) next_expiry = expiry;
    if (now_ > expiry &&
        (expiry < earliest || (expiry == earliest && node < detector))) {
      earliest = expiry;
      detector = node;
    }
  }
  if (detector != kInvalidNode) {
    sat_timer_guard_valid_ = false;
    if (!fsm_.on_signal_fail(detector, ring_.predecessor(detector), now_)) {
      // Suppressed as a stale echo of the event just survived: re-arm the
      // detector's timer so the sweep does not re-accuse every slot for
      // the remainder of the guard window.
      kernel_.last_sat_arrival_[static_cast<std::size_t>(
          station_position(detector))] = now_;
    }
    return;
  }
  sat_timer_guard_ = next_expiry;
  sat_timer_guard_valid_ = next_expiry != kNeverTick;
}

void Engine::start_recovery(NodeId detector) {
  ++stats_.sat_losses_detected;
  journal_record(detector, telemetry::JournalKind::kSatRecStart,
                 ring_.predecessor(detector));
  if (sat_lost_at_ != kNeverTick) {
    stats_.sat_loss_detection_slots.add(
        ticks_to_slots_real(now_ - sat_lost_at_));
    WRT_OBSERVE(kSatDetectSlots, ticks_to_slots(now_ - sat_lost_at_));
  }
  // Section 2.5: the detector generates SAT_REC naming its predecessor as
  // the (supposedly) failed station.
  sat_.is_rec = true;
  sat_.graceful_leave = false;
  sat_.rec_origin = detector;
  sat_.rec_failed = ring_.predecessor(detector);
  sat_.rap_owner = kInvalidNode;
  rec_deadline_ = now_ + slots_to_ticks(effective_sat_timeout(detector));
  kernel_.last_sat_arrival_[static_cast<std::size_t>(
      station_position(detector))] = now_;
  sat_state_ = SatState::kHeld;
  sat_location_ = detector;
  // The detector itself gets a fresh round and forwards the SAT_REC.
  sat_release(detector);
}

void Engine::drop_in_flight_frames(TeardownCause cause) {
  // Frames abandoned by a ring teardown are a different casualty class than
  // channel losses: they indict the recovery path (or, for a join's update
  // phase, planned churn), not the link quality.
  const std::uint64_t dropped = kernel_.frames_in_flight();
  if (dropped > 0) {
    if (cause == TeardownCause::kJoin) {
      stats_.frames_lost_churn += dropped;
    } else {
      stats_.frames_lost_rebuild += dropped;
    }
    if (ring_.size() > 0) {
      journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildDrop,
                     static_cast<NodeId>(dropped));
    }
  }
  reset_data_plane();
}

void Engine::start_rebuild() {
  ++stats_.ring_rebuilds;
  journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildStart);
  drop_in_flight_frames();
  sat_state_ = SatState::kRebuilding;
  sat_.is_rec = false;
  sat_.graceful_leave = false;
  rec_deadline_ = kNeverTick;
  std::int64_t alive = 0;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) ++alive;
  }
  rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots +
                                        config_.rebuild_per_station_slots *
                                            alive);
}

void Engine::finish_rebuild() {
  // Re-formation recruits only stations that can hear the broadcast: the
  // largest connected component (restricted to this engine's member set
  // when one is configured).  Stations that wandered out of range stay
  // out and may rejoin later through the RAP.
  std::vector<NodeId> candidates = ring::largest_component(*topology_);
  if (!config_.members.empty()) {
    std::vector<NodeId> allowed = config_.members;
    std::sort(allowed.begin(), allowed.end());
    std::erase_if(candidates,
                  [&](NodeId n) { return !sorted_contains(allowed, n); });
  }
  auto ring_result = ring::build_ring_over(*topology_, std::move(candidates));
  if (!ring_result.ok()) {
    // Try again after another rebuild period; the network stays down.
    rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots);
    return;
  }
  const ring::VirtualRing new_ring = std::move(ring_result.value());

  // Keep state for surviving members; create state for (re)joining ones.
  std::vector<NodeId> members = new_ring.order();
  std::sort(members.begin(), members.end());
  std::vector<NodeId> departed;
  for (const NodeId node : kernel_.ids()) {
    if (!sorted_contains(members, node)) departed.push_back(node);
  }
  std::sort(departed.begin(), departed.end());
  if (membership_callback_) {
    for (const NodeId node : departed) membership_callback_(node, false);
  }

  // Re-pack the position-indexed vectors against the new ring order, moving
  // surviving stations' state (queues, quotas, splits) into place.  The old
  // position_index_ stays valid until rebuild_position_index() below.
  SlotKernel new_kernel;
  new_kernel.configure(config_.queue_capacity);
  std::vector<NodeId> joined;
  for (std::size_t p = 0; p < new_ring.size(); ++p) {
    const NodeId node = new_ring.station_at(p);
    const std::int32_t old_position = station_position(node);
    if (old_position >= 0) {
      new_kernel.adopt_station(kernel_,
                               static_cast<std::size_t>(old_position));
    } else {
      new_kernel.push_station(node, config_.default_quota,
                              config_.k1_assured, now_);
      joined.push_back(node);
    }
  }
  ring_ = new_ring;
  kernel_ = std::move(new_kernel);
  rebuild_position_index();
  if (membership_callback_) {
    for (const NodeId node : joined) membership_callback_(node, true);
  }
  assign_codes();
  reset_data_plane();
  rotation_anchor_ = ring_.station_at(0);
  // The re-formation may have recruited stations that were waiting to
  // rejoin; their pending requests are now moot.
  for (auto it = pending_joins_.begin(); it != pending_joins_.end();) {
    it = ring_.contains(it->first) ? pending_joins_.erase(it) : ++it;
  }
  // Rotation history across a rebuild would mix two different rings.
  for (Tick& arrival : kernel_.last_rotation_arrival_) arrival = kNeverTick;
  for (auto& history : kernel_.arrival_history_) history.clear();
  if (sat_lost_at_ != kNeverTick) {
    stats_.recovery_total_slots.add(ticks_to_slots_real(now_ - sat_lost_at_));
  }
  fsm_.on_rebuild_complete(now_, sat_lost_at_ != kNeverTick
                                     ? ticks_to_slots_real(now_ -
                                                           sat_lost_at_)
                                     : -1.0);
  journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildDone,
                 static_cast<std::uint32_t>(ring_.size()));
  launch_sat(ring_.station_at(0));
  notify_audit("rebuild");
}

util::Status Engine::check_invariants() const {
  const std::size_t R = ring_.size();
  if (kernel_.size() != R || kernel_.last_sat_arrival_.size() != R) {
    return util::Error::protocol_violation(
        "station/control columns do not match ring size");
  }
  if (kernel_.link_columns() != R || kernel_.transit_.size() != R) {
    return util::Error::protocol_violation("link structures out of sync");
  }
  for (std::size_t p = 0; p < R; ++p) {
    const NodeId node = ring_.station_at(p);
    if (kernel_.ids_[p] != node) {
      return util::Error::protocol_violation(
          "station vector misaligned with ring order at position " +
          std::to_string(p));
    }
    if (station_position(node) != static_cast<std::int32_t>(p)) {
      return util::Error::protocol_violation(
          "position index stale for station " + std::to_string(node));
    }
    if (kernel_.rt_pck_[p] > kernel_.quota_[p].l ||
        kernel_.nrt_pck_[p] > kernel_.quota_[p].k) {
      return util::Error::protocol_violation(
          "quota counters exceed quotas at station " + std::to_string(node));
    }
    if (kernel_.k1_assured_[p] > kernel_.quota_[p].k) {
      return util::Error::protocol_violation(
          "k1 split exceeds k at station " + std::to_string(node));
    }
    // Per-link pipeline depth is bounded by the hop latency.
    if (kernel_.link_size(p) >
            static_cast<std::size_t>(config_.hop_latency_slots) ||
        kernel_.link_depth() !=
            static_cast<std::size_t>(config_.hop_latency_slots)) {
      return util::Error::protocol_violation("link pipeline overfull");
    }
  }
  switch (sat_state_) {
    case SatState::kHeld:
      if (!ring_.contains(sat_location_)) {
        return util::Error::protocol_violation(
            "SAT held at a station not in the ring");
      }
      break;
    case SatState::kInTransit:
      if (!ring_.contains(sat_location_)) {
        return util::Error::protocol_violation(
            "SAT in transit toward a station not in the ring");
      }
      if (sat_arrival_tick_ < now_) {
        return util::Error::protocol_violation("SAT arrival in the past");
      }
      break;
    case SatState::kLost:
    case SatState::kRebuilding:
      break;
  }
  if (stats_.sink.total_delivered() > stats_.data_transmissions) {
    return util::Error::protocol_violation(
        "more deliveries than transmissions");
  }
  // Frame conservation: every injected frame is delivered, lost on a hop,
  // discarded by a teardown, purged as stale, or still in flight.  A leak
  // here means some fault path dropped frames without accounting for them.
  const std::uint64_t accounted =
      stats_.sink.total_delivered() + stats_.frames_lost_link +
      stats_.frames_lost_rebuild + stats_.frames_lost_churn +
      stats_.frames_dropped_stale + frames_in_flight();
  if (accounted != stats_.data_transmissions) {
    return util::Error::protocol_violation(
        "frame accounting leak: " + std::to_string(stats_.data_transmissions) +
        " transmitted vs " + std::to_string(accounted) + " accounted");
  }
  return util::Status::success();
}

// ---------------------------------------------------------------------------
// RAP & join (Section 2.4.1)
// ---------------------------------------------------------------------------

bool Engine::wants_rap(NodeId node) const {
  if (config_.rap_policy != RapPolicy::kRotating) return false;
  const std::int32_t position = station_position(node);
  if (position < 0) return false;
  const std::int64_t min_rounds =
      config_.s_round_min > 0 ? config_.s_round_min
                              : static_cast<std::int64_t>(ring_.size());
  return kernel_.rounds_since_rap_[static_cast<std::size_t>(position)] >=
         min_rounds;
}

void Engine::request_join(NodeId node, Quota quota) {
  // A ring re-formation may have recruited the requester already (it is an
  // alive, reachable station); joining twice is a no-op.
  if (ring_.contains(node)) return;
  PendingJoin join;
  join.quota = quota;
  join.requested_at = now_;
  pending_joins_[node] = std::move(join);
}

util::Status Engine::request_leave(NodeId node) {
  if (!ring_.contains(node)) {
    return util::Error::not_found("station not in ring");
  }
  if (ring_.size() <= 3) {
    return util::Error::no_ring_possible(
        "leaving would drop the ring below 3 stations");
  }
  if (leave_pending_ != kInvalidNode) {
    return util::Error::protocol_violation("another leave is in progress");
  }
  leave_pending_ = node;
  return util::Status::success();
}

void Engine::kill_station(NodeId node) {
  topology_->set_alive(node, false);
  if (sat_location_ == node &&
      (sat_state_ == SatState::kHeld || sat_state_ == SatState::kInTransit)) {
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
  }
}

void Engine::stall_station(NodeId node) {
  if (node >= stalled_.size()) {
    stalled_.resize(static_cast<std::size_t>(node) + 1, 0);
  }
  if (stalled_[node] != 0) return;
  stalled_[node] = 1;
  ++stall_epoch_;
  journal_record(node, telemetry::JournalKind::kStall);
  // A wedged holder takes the SAT down with it, exactly like a crash —
  // except the station is still topologically present and may come back.
  if (sat_location_ == node &&
      (sat_state_ == SatState::kHeld || sat_state_ == SatState::kInTransit)) {
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
  }
}

void Engine::resume_station(NodeId node) {
  if (!station_stalled(node)) return;
  stalled_[node] = 0;
  ++stall_epoch_;
  journal_record(node, telemetry::JournalKind::kResume);
  const std::int32_t position = station_position(node);
  if (position >= 0) {
    // Still a member: its SAT_TIMER slept through the wedge and would fire
    // immediately on wake; restart it instead of spuriously starting a
    // recovery against a healthy ring.
    kernel_.last_sat_arrival_[static_cast<std::size_t>(position)] = now_;
  } else if (config_.auto_rejoin && topology_->alive(node) &&
             config_.rap_policy != RapPolicy::kDisabled &&
             !fsm_.tracks_rejoin(node)) {
    // The ring cut it out while it was wedged; re-enter via Section 2.4.1.
    // When the RecoveryFsm holds the station under a WTR/WTB hold-off it
    // owns the rejoin (with the original quota), so don't race it here.
    PendingJoin rejoin;
    rejoin.quota = config_.default_quota;
    rejoin.requested_at = now_;
    pending_joins_[node] = std::move(rejoin);
  }
}

void Engine::degrade_link(NodeId a, NodeId b, const fault::GeParams& params) {
  for (std::size_t i = 0; i < fault::kLossPurposeCount; ++i) {
    const auto purpose = static_cast<fault::LossPurpose>(i);
    link_loss_.set_link_params(purpose, a, b, params);
    link_loss_.set_link_params(purpose, b, a, params);
  }
}

void Engine::heal_link(NodeId a, NodeId b) {
  for (std::size_t i = 0; i < fault::kLossPurposeCount; ++i) {
    const auto purpose = static_cast<fault::LossPurpose>(i);
    link_loss_.clear_link_params(purpose, a, b);
    link_loss_.clear_link_params(purpose, b, a);
  }
}

std::uint64_t Engine::frames_in_flight() const noexcept {
  return kernel_.frames_in_flight();
}

void Engine::begin_rap(NodeId ingress) {
  ++stats_.raps_started;
  journal_record(ingress, telemetry::JournalKind::kRapStart);
  rap_ingress_ = ingress;
  rap_ear_end_ = now_ + slots_to_ticks(config_.t_ear_slots);
  rap_end_ = now_ + slots_to_ticks(config_.t_rap_slots());
  rap_accepted_joiner_ = kInvalidNode;
  sat_.rap_owner = ingress;
  sat_state_ = SatState::kHeld;
  sat_location_ = ingress;
  kernel_.rounds_since_rap_[static_cast<std::size_t>(
      ring_.position_of(ingress))] = 0;

  // Slot 0 of the earing phase: the ingress broadcasts NEXT_FREE with its
  // own address/code and its successor's (Section 2.4.1).
  const NodeId announced_next = ring_.successor(ingress);
  // One-shot fault: the broadcast itself dies and every listener misses this
  // round.  No backoff — a joiner cannot tell a lost NEXT_FREE from an
  // ingress that simply is not RAPing yet.
  const bool next_free_dropped = take_control_drop(ControlMsg::kNextFree);
  std::vector<NodeId> repliers;
  for (auto it = pending_joins_.begin(); it != pending_joins_.end();) {
    // A pending joiner that re-entered through a ring re-formation no
    // longer needs the handshake.
    if (ring_.contains(it->first)) {
      it = pending_joins_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [joiner, join] : pending_joins_) {
    if (!station_active(joiner) ||
        !topology_->reachable(ingress, joiner)) {
      continue;
    }
    // A joiner backing off after a lost handshake is not listening yet.
    if (now_ < join.backoff_until) continue;
    if (next_free_dropped ||
        link_loss_.offer(fault::LossPurpose::kControl, ingress, joiner)) {
      ++stats_.control_messages_lost;
      continue;
    }
    // "When the station receives another NEXT_FREE message from the same
    // station, all the other stations have already entered their RAP."
    if (join.heard.contains(ingress)) join.table_complete = true;
    join.heard[ingress] = announced_next;

    if (join.table_complete && join.chosen_ingress == kInvalidNode) {
      for (const auto& [sender, next] : join.heard) {
        if (topology_->reachable(joiner, sender) &&
            topology_->reachable(joiner, next)) {
          join.chosen_ingress = sender;
          break;
        }
      }
    }
    if (join.chosen_ingress == ingress) repliers.push_back(joiner);
  }

  // Earing phase, slot 1: eligible joiners answer on code(ingress).  Two
  // simultaneous replies spread with the same code collide (Figure 1's
  // converse) and neither is decoded; both wait for a later NEXT_FREE.
  if (repliers.size() > 1) {
    ++stats_.cdma_collisions;
    return;
  }
  if (repliers.empty()) return;

  const NodeId joiner = repliers.front();
  auto& join = pending_joins_.at(joiner);
  // Earing slot 1: the JOIN_REQ travels joiner -> ingress and can be lost.
  // The RAP then simply ends empty — the mutex is freed when the SAT
  // completes its round as usual, nothing is half-inserted — and the joiner,
  // seeing no acknowledged insertion, backs off before listening again.
  if (take_control_drop(ControlMsg::kJoinReq) ||
      link_loss_.offer(fault::LossPurpose::kControl, joiner, ingress)) {
    ++stats_.control_messages_lost;
    register_join_backoff(joiner);
    return;
  }
  // Slot 2: admission check + JOIN_ACK on code(ingress).
  if (!admission_allows(join.quota)) {
    ++stats_.joins_rejected;
    journal_record(joiner, telemetry::JournalKind::kJoinRejected, ingress);
    pending_joins_.erase(joiner);
    return;
  }
  // The JOIN_ACK travels ingress -> joiner and can die too.  The update
  // phase only ever runs for an acknowledged joiner, so a lost ACK leaves
  // the ring untouched; the joiner retries like a lost JOIN_REQ.
  if (take_control_drop(ControlMsg::kJoinAck) ||
      link_loss_.offer(fault::LossPurpose::kControl, ingress, joiner)) {
    ++stats_.control_messages_lost;
    register_join_backoff(joiner);
    return;
  }
  rap_accepted_joiner_ = joiner;
}

void Engine::register_join_backoff(NodeId joiner) {
  const auto it = pending_joins_.find(joiner);
  if (it == pending_joins_.end()) return;
  PendingJoin& join = it->second;
  ++join.attempts;
  ++stats_.join_retries;
  journal_record(joiner, telemetry::JournalKind::kControlLost, join.attempts);
  if (join.attempts >= config_.join_max_attempts) {
    ++stats_.joins_abandoned;
    journal_record(joiner, telemetry::JournalKind::kJoinRejected,
                   rap_ingress_);
    pending_joins_.erase(it);
    return;
  }
  const std::uint32_t exponent =
      std::min(join.attempts - 1, config_.join_backoff_exp_cap);
  join.backoff_until =
      now_ +
      slots_to_ticks(config_.join_backoff_base_slots << exponent);
  // The ring may look completely different by the time the backoff expires;
  // restart the NEXT_FREE table from scratch.
  join.heard.clear();
  join.table_complete = false;
  join.chosen_ingress = kInvalidNode;
}

void Engine::rap_step() {
  if (rap_ingress_ == kInvalidNode) return;
  if (now_ < rap_end_) return;
  finish_rap();
}

void Engine::finish_rap() {
  const NodeId ingress = rap_ingress_;
  rap_ingress_ = kInvalidNode;
  if (rap_accepted_joiner_ != kInvalidNode) {
    complete_join(rap_accepted_joiner_, ingress);
    rap_accepted_joiner_ = kInvalidNode;
  }
  // The RAP over, the ingress resumes the normal SAT algorithm.
  if (sat_state_ == SatState::kHeld && sat_location_ == ingress) {
    const std::int32_t position = station_position(ingress);
    if (position >= 0 &&
        kernel_.satisfied(static_cast<std::size_t>(position))) {
      sat_release(ingress);
    }
  }
}

void Engine::complete_join(NodeId joiner, NodeId ingress) {
  const auto join_it = pending_joins_.find(joiner);
  if (join_it == pending_joins_.end()) return;
  const PendingJoin join = join_it->second;
  pending_joins_.erase(join_it);

  // Update phase: insert between the ingress and its successor, assign a
  // fresh distance-2-safe code, and initialise MAC state.  In-flight frames
  // abandoned here are planned churn, not recovery casualties.
  //
  // Revertive recovery (RecoveryFsm): when the joiner is a station the FSM
  // held through its WTR/WTB hold-off, re-insert it after its original ring
  // predecessor with its original Diffserv split (the update phase may
  // announce any insertion point), provided that position still physically
  // works — rotation history and the Theorem 1/2 bounds then survive the
  // blip.  Otherwise fall back to the RAP ingress.
  NodeId insert_after = ingress;
  NodeId revert_anchor = kInvalidNode;
  std::uint32_t revert_k1 = 0;
  const bool revert =
      fsm_.take_revertive_anchor(joiner, &revert_anchor, &revert_k1);
  if (revert && revert_anchor != joiner && ring_.contains(revert_anchor) &&
      topology_->reachable(revert_anchor, joiner) &&
      topology_->reachable(joiner, ring_.successor(revert_anchor))) {
    insert_after = revert_anchor;
  }
  drop_in_flight_frames(TeardownCause::kJoin);
  insert_member(insert_after, joiner, join.quota);
  if (revert && insert_after == revert_anchor) {
    kernel_.set_k1_assured(
        static_cast<std::size_t>(station_position(joiner)), revert_k1);
    fsm_.record_revert_outcome(joiner, revert_anchor, membership_epoch_);
  }
  if (codes_.size() <= joiner) codes_.resize(joiner + 1, kInvalidCode);
  codes_[joiner] = cdma::smallest_free_code(*topology_, codes_, joiner);
  reset_data_plane();
  if (channel_) {
    channel_->set_listen_codes(joiner, {codes_[joiner], kBroadcastCode});
  }
  ++stats_.joins_completed;
  const double join_latency = ticks_to_slots_real(now_ - join.requested_at);
  stats_.join_latency_slots.add(join_latency);
  WRT_OBSERVE(kJoinLatencySlots, join_latency);
  journal_record(joiner, telemetry::JournalKind::kJoin, ingress);
  if (membership_callback_) membership_callback_(joiner, true);
  notify_audit("join");
}

void Engine::queue_rejoin(NodeId node, Quota quota) {
  if (!config_.auto_rejoin || config_.rap_policy == RapPolicy::kDisabled) {
    return;
  }
  if (ring_.contains(node) || !station_active(node)) return;
  if (pending_joins_.find(node) != pending_joins_.end()) return;
  PendingJoin rejoin;
  rejoin.quota = quota;
  rejoin.requested_at = now_;
  pending_joins_[node] = std::move(rejoin);
}

util::Status Engine::force_switch(NodeId node) {
  if (!fsm_.on_forced_switch(node, now_)) {
    return util::Error::protocol_violation(
        "force_switch: a forced switch is already active");
  }
  const auto status = request_leave(node);
  if (!status.ok()) {
    fsm_.on_clear_forced(node, now_);
    return status;
  }
  return status;
}

void Engine::clear_force_switch(NodeId node) {
  fsm_.on_clear_forced(node, now_);
}

}  // namespace wrt::wrtring
