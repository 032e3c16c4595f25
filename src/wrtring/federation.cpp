#include "wrtring/federation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <thread>
#include <utility>

#include "phy/topology.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "wrtring/gateway.hpp"

namespace wrt::wrtring {

namespace {

/// Crossing-stream flow ids live above every local flow id so the two
/// spaces cannot collide (local ids are dense from 0).
constexpr FlowId kCrossingFlowBase = FlowId{1} << 30;

/// Every station is the gateway candidate; by convention node 0 bridges
/// its ring to the backbone (it exists in every ring and never churns in
/// a federation run).
constexpr NodeId kGatewayNode = 0;

/// `pause` iterations a pool thread spins on a go/done signal before it
/// parks in atomic::wait: ~400 µs where a pause costs ~25 ns, as on
/// recent Intel Xeons.  That outlasts the imbalance within an epoch and a
/// short serial pass between run_epochs calls (perfbench's federation
/// audit between chunks, ~150 µs on a 4-core Xeon), so a stepping caller
/// does not pay a futex wake and a cold core per call; a caller that
/// stops stepping parks the pool soon after.  A pool wider than the host
/// does not spin: a spinning waiter would hold a core that a thread with
/// shards still to run is queued for.
constexpr int kSpinPauses = 1 << 14;

/// While spinning, a waiter yields its core once per this many pauses.
/// The kernel may leave pool threads on the core they were created on
/// (cpusets with load balancing off do), and a waiter that shares a core
/// with the thread it waits for would otherwise starve that thread until
/// the spin runs out: 2 ms epochs instead of 0.3 ms on such a host.
constexpr int kPausesPerYield = 64;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `signal` no longer holds `seen` and returns the new value:
/// spins `spins` iterations, then parks.  The acquire load pairs with the
/// release store or RMW that changed it.
std::uint32_t await_change(const std::atomic<std::uint32_t>& signal,
                           std::uint32_t seen, int spins) {
  for (int i = 1; i <= spins; ++i) {
    const std::uint32_t now = signal.load(std::memory_order_acquire);
    if (now != seen) return now;
    if (i % kPausesPerYield == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  for (;;) {
    signal.wait(seen, std::memory_order_acquire);
    const std::uint32_t now = signal.load(std::memory_order_acquire);
    if (now != seen) return now;
  }
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFU;
    h *= kFnvPrime;
  }
}

/// Stable per-ring seed: mixes the federation seed with the ring's global
/// index through splitmix64, so ring streams are independent and do not
/// depend on construction order.
[[nodiscard]] std::uint64_t ring_seed(std::uint64_t federation_seed,
                                      std::uint32_t ring_index) {
  std::uint64_t state =
      federation_seed ^ (0x9e3779b97f4a7c15ULL * (ring_index + 1ULL));
  return util::splitmix64(state);
}

}  // namespace

util::Status FederationConfig::validate() const {
  if (shards == 0) return util::Error::invalid_argument("shards must be >= 1");
  if (rings == 0) return util::Error::invalid_argument("rings must be >= 1");
  if (stations_per_ring < 4) {
    return util::Error::invalid_argument("stations_per_ring must be >= 4");
  }
  if (epoch_slots < 1) {
    return util::Error::invalid_argument("epoch_slots must be >= 1");
  }
  if (crossing_flows_per_ring > 0 && rings < 2) {
    return util::Error::invalid_argument(
        "crossing flows need at least 2 rings");
  }
  if (crossing_flows_per_ring > 0 && crossing_rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("crossing rate must be positive");
  }
  if (!ring.members.empty() || !ring.station_quotas.empty()) {
    return util::Error::invalid_argument(
        "ring template must leave members/station_quotas empty");
  }
  return util::Status::success();
}

FederationEngine::FederationEngine(FederationConfig config,
                                   std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

FederationEngine::~FederationEngine() { stop_workers(); }

util::Status FederationEngine::init() {
  assert(!initialized_);
  if (util::Status status = config_.validate(); !status.ok()) return status;

  const std::uint32_t K = config_.shards;
  shards_.reserve(K);
  for (std::uint32_t s = 0; s < K; ++s) {
    shards_.push_back(std::make_unique<FederationShard>(
        s, K, config_.backbone_hops, config_.backbone_service_rate,
        config_.backbone_queue_capacity, config_.backbone_premium_capacity));
  }
  mailboxes_.resize(static_cast<std::size_t>(K) * K);
  for (std::uint32_t s = 0; s < K; ++s) {
    std::vector<Mailbox*> inbound(K);
    std::vector<Mailbox*> outbound(K);
    for (std::uint32_t p = 0; p < K; ++p) {
      inbound[p] = &mailboxes_[static_cast<std::size_t>(p) * K + s];
      outbound[p] = &mailboxes_[static_cast<std::size_t>(s) * K + p];
    }
    shards_[s]->set_mailboxes(std::move(inbound), std::move(outbound));
  }

  if (util::Status status = build_rings(); !status.ok()) return status;
  install_crossing_flows();
  initialized_ = true;
  return util::Status::success();
}

util::Status FederationEngine::build_rings() {
  const std::uint32_t K = config_.shards;
  const std::size_t n = config_.stations_per_ring;
  // Same geometry as the bench "ring room": n stations on a circle with
  // radio range ~2.4 chord lengths (cut-out capable, ring always forms).
  const double radius = 10.0;
  const double chord =
      2.0 * radius * std::sin(std::numbers::pi / static_cast<double>(n));
  const phy::RadioParams radio{chord * 2.4, 0.0};

  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    auto topology = std::make_unique<phy::Topology>(
        phy::placement::circle(n, radius), radio, ring_seed(seed_, r) | 1U);
    auto engine = std::make_unique<Engine>(topology.get(), config_.ring,
                                           ring_seed(seed_, r));
    if (util::Status status = engine->init(); !status.ok()) return status;

    // Local best-effort backlog: `saturated_per_ring` always-backlogged
    // sources, gateway exempt so crossings are not starved at G1.
    const auto span = static_cast<std::uint32_t>(n - 1);
    for (std::uint32_t i = 0; i < config_.saturated_per_ring; ++i) {
      traffic::FlowSpec spec;
      spec.id = static_cast<FlowId>(r) * config_.saturated_per_ring + i;
      spec.src = 1 + (i % span);
      spec.dst = 1 + ((i + span / 2) % span);
      if (spec.dst == spec.src) spec.dst = 1 + (spec.src % span);
      spec.cls = TrafficClass::kBestEffort;
      engine->add_saturated_source(spec, /*backlog=*/4);
    }

    shards_[r % K]->add_ring(r, kGatewayNode, std::move(topology),
                             std::move(engine));
  }
  return util::Status::success();
}

void FederationEngine::install_crossing_flows() {
  if (config_.crossing_flows_per_ring == 0) return;
  const std::uint32_t K = config_.shards;
  const auto span = static_cast<std::uint32_t>(config_.stations_per_ring - 1);
  std::int64_t deadline = config_.crossing_deadline_slots;
  if (deadline == 0) {
    // Generous enough for the epoch-quantized hand-offs (up to two epoch
    // waits) plus ring access on both sides; see DESIGN.md §12.
    deadline = 4 * config_.epoch_slots +
               8 * static_cast<std::int64_t>(config_.stations_per_ring) + 64;
  }
  // Destination rings are drawn from a dedicated stream of the federation
  // seed; discovery order cannot perturb it (satellite fix vs. the old
  // multiring `engines_.size() * 7919` scheme).
  util::RngStream rng(seed_, /*stream=*/0xFEDEull);

  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    for (std::uint32_t c = 0; c < config_.crossing_flows_per_ring; ++c) {
      CrossingFlow crossing;
      crossing.flow = kCrossingFlowBase +
                      static_cast<FlowId>(r) * config_.crossing_flows_per_ring +
                      c;
      crossing.src_ring = r;
      const std::uint64_t offset = 1 + rng.uniform_int(config_.rings - 1ULL);
      crossing.dst_ring =
          static_cast<std::uint32_t>((r + offset) % config_.rings);
      crossing.src_station = 1 + (c % span);
      crossing.dst_station = 1 + ((c + span / 2) % span);

      const std::uint32_t src_shard = crossing.src_ring % K;
      const std::uint32_t dst_shard = crossing.dst_ring % K;
      const std::size_t src_slot = crossing.src_ring / K;
      const std::size_t dst_slot = crossing.dst_ring / K;

      // Three-way reservation brokering (serial): source ring, then the
      // destination shard's backbone segment + destination ring together.
      // Any refusal demotes the stream to best-effort.
      Gateway src_gateway(&shards_[src_shard]->ring_engine(src_slot),
                          &shards_[src_shard]->backbone(), kGatewayNode);
      Gateway dst_gateway(&shards_[dst_shard]->ring_engine(dst_slot),
                          &shards_[dst_shard]->backbone(), kGatewayNode);
      auto egress = src_gateway.reserve_ring_capacity(
          crossing.src_station, crossing.flow, config_.crossing_rate_per_slot);
      if (egress.ok()) {
        auto ingress = dst_gateway.reserve_backbone_to_ring(
            crossing.flow, config_.crossing_rate_per_slot);
        if (ingress.ok()) {
          crossing.admitted = true;
        } else {
          (void)src_gateway.release(crossing.flow);
        }
      }
      if (crossing.admitted) {
        ++rt_admitted_;
      } else {
        ++rt_rejected_;
      }

      traffic::FlowSpec spec;
      spec.id = crossing.flow;
      spec.src = crossing.src_station;
      spec.dst = kGatewayNode;  // first leg terminates at the egress gateway
      spec.cls = crossing.admitted ? TrafficClass::kRealTime
                                   : TrafficClass::kBestEffort;
      spec.kind = traffic::ArrivalKind::kCbr;
      spec.period_slots = 1.0 / config_.crossing_rate_per_slot;
      spec.deadline_slots = crossing.admitted ? deadline : 0;
      shards_[src_shard]->ring_engine(src_slot).add_source(spec);

      OutboundRoute out;
      out.src_ring = crossing.src_ring;
      out.dst_ring = crossing.dst_ring;
      out.dst_shard = dst_shard;
      out.dst_station = crossing.dst_station;
      shards_[src_shard]->add_outbound_route(crossing.flow, out);

      InboundRoute in;
      in.dst_ring = crossing.dst_ring;
      in.ring_slot = dst_slot;
      in.dst_station = crossing.dst_station;
      in.gateway = kGatewayNode;
      shards_[dst_shard]->add_inbound_route(crossing.flow, in);

      crossing_flows_.push_back(crossing);
    }
  }
}

std::uint32_t FederationEngine::worker_count() const noexcept {
  const auto K = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t W =
      config_.worker_threads == 0 ? K : config_.worker_threads;
  return std::max(std::min(W, K), 1U);
}

void FederationEngine::run_worker_shards(std::uint32_t worker,
                                         std::uint32_t width) {
  // Static shard -> worker assignment (s mod W): a shard keeps its core
  // and its warm caches from epoch to epoch.  The assignment has no
  // semantic weight — shards never observe each other mid-epoch.
  for (std::size_t s = worker; s < shards_.size(); s += width) {
    shards_[s]->run_epoch(config_.epoch_slots);
  }
}

void FederationEngine::start_workers(std::uint32_t width) {
  stopping_ = false;
  spin_pauses_ =
      width <= std::thread::hardware_concurrency() ? kSpinPauses : 0;
  workers_.reserve(width - 1);
  try {
    for (std::uint32_t w = 1; w < width; ++w) {
      workers_.emplace_back(&FederationEngine::worker_main, this, w, width,
                            generation_);
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

void FederationEngine::stop_workers() noexcept {
  if (workers_.empty()) return;
  stopping_ = true;
  go_.store(++generation_, std::memory_order_release);
  go_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void FederationEngine::worker_main(std::uint32_t worker, std::uint32_t width,
                                   std::uint32_t generation) {
  for (;;) {
    // Acquire: the coordinator's flip and any serial work it did between
    // epochs happen-before this worker touches its shards.
    generation = await_change(go_, generation, spin_pauses_);
    if (stopping_) return;
    run_worker_shards(worker, width);
    // Release: this epoch's shard writes happen-before the coordinator's
    // acquire of done_ == 0 (every decrement heads a release sequence the
    // last one continues).
    if (done_.fetch_sub(1, std::memory_order_release) == 1) {
      done_.notify_one();
    }
  }
}

void FederationEngine::run_epochs(std::int64_t epochs) {
  assert(initialized_);
  const std::uint32_t W = worker_count();
  if (W > 1 && workers_.empty()) start_workers(W);

  for (std::int64_t e = 0; e < epochs; ++e) {
    if (W > 1) {
      done_.store(W - 1, std::memory_order_relaxed);
      go_.store(++generation_, std::memory_order_release);
      go_.notify_all();
    }
    run_worker_shards(0, W);
    for (std::uint32_t left = W - 1; left != 0;) {
      left = await_change(done_, left, spin_pauses_);
    }

    // Every worker has reported done: flip every mailbox serially so this
    // epoch's posts become next epoch's inbound.
    for (Mailbox& mailbox : mailboxes_) mailbox.flip();

    std::int64_t epoch_max_ns = 0;
    for (const auto& shard : shards_) {
      epoch_max_ns = std::max(epoch_max_ns, shard->last_epoch_busy_ns());
    }
    critical_path_ns_ += epoch_max_ns;

    now_slots_ += config_.epoch_slots;
    ++epochs_run_;
  }
}

const Engine& FederationEngine::ring_engine(std::uint32_t ring) const {
  return shards_.at(ring % shards_.size())->ring_engine(ring / shards_.size());
}

Engine& FederationEngine::ring_engine(std::uint32_t ring) {
  return shards_.at(ring % shards_.size())->ring_engine(ring / shards_.size());
}

std::vector<Tick> FederationEngine::rt_crossing_delay_ticks() const {
  std::vector<Tick> merged;
  for (const auto& shard : shards_) {
    const auto& samples = shard->rt_crossing_delay_ticks();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  return merged;
}

FederationStats FederationEngine::stats() const {
  FederationStats out;
  out.ring_slots = static_cast<std::uint64_t>(config_.rings) *
                   static_cast<std::uint64_t>(now_slots_);
  out.station_slots = out.ring_slots * config_.stations_per_ring;
  out.rt_admitted = rt_admitted_;
  out.rt_rejected = rt_rejected_;
  std::int64_t busy_ns = 0;
  for (const auto& shard : shards_) {
    const ShardCounters& counters = shard->counters();
    out.crossings.crossings_posted += counters.crossings_posted;
    out.crossings.crossings_received += counters.crossings_received;
    out.crossings.crossings_injected += counters.crossings_injected;
    out.crossings.crossings_delivered += counters.crossings_delivered;
    out.crossings.crossing_drops += counters.crossing_drops;
    out.backbone_tail_drops += shard->backbone().tail_drops();
    busy_ns += shard->busy_ns_total();
    for (std::size_t slot = 0; slot < shard->ring_count(); ++slot) {
      out.total_delivered +=
          shard->ring_engine(slot).stats().sink.total_delivered();
    }
  }
  out.busy_seconds = static_cast<double>(busy_ns) * 1e-9;
  out.critical_path_seconds = static_cast<double>(critical_path_ns_) * 1e-9;
  return out;
}

std::uint64_t FederationEngine::digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, seed_);
  fnv_mix(h, config_.shards);
  fnv_mix(h, config_.rings);
  fnv_mix(h, config_.stations_per_ring);
  fnv_mix(h, static_cast<std::uint64_t>(config_.epoch_slots));
  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    const EngineStats& stats = ring_engine(r).stats();
    fnv_mix(h, ring_engine(r).virtual_ring().size());
    fnv_mix(h, stats.sat_rounds);
    fnv_mix(h, stats.sat_hops);
    fnv_mix(h, stats.data_transmissions);
    fnv_mix(h, stats.transit_forwards);
    fnv_mix(h, stats.frames_lost_link);
    fnv_mix(h, stats.frames_lost_rebuild);
    fnv_mix(h, stats.frames_lost_churn);
    fnv_mix(h, stats.frames_dropped_stale);
    fnv_mix(h, stats.sink.total_delivered());
    const auto& rt = stats.sink.by_class(TrafficClass::kRealTime);
    fnv_mix(h, rt.delivered);
    fnv_mix(h, rt.deadline_misses);
    fnv_mix(h, stats.sink.by_class(TrafficClass::kBestEffort).delivered);
    fnv_mix(h, stats.sat_recoveries);
    fnv_mix(h, stats.ring_rebuilds);
  }
  for (const auto& shard : shards_) {
    const ShardCounters& counters = shard->counters();
    fnv_mix(h, counters.crossings_posted);
    fnv_mix(h, counters.crossings_received);
    fnv_mix(h, counters.crossings_injected);
    fnv_mix(h, counters.crossings_delivered);
    fnv_mix(h, counters.crossing_drops);
    fnv_mix(h, shard->backbone().tail_drops());
    fnv_mix(h, shard->in_flight());
    const auto& rt_samples = shard->rt_crossing_delay_ticks();
    fnv_mix(h, rt_samples.size());
    for (const Tick tick : rt_samples) {
      fnv_mix(h, static_cast<std::uint64_t>(tick));
    }
    const auto& be_samples = shard->be_crossing_delay_ticks();
    fnv_mix(h, be_samples.size());
    for (const Tick tick : be_samples) {
      fnv_mix(h, static_cast<std::uint64_t>(tick));
    }
  }
  fnv_mix(h, rt_admitted_);
  fnv_mix(h, rt_rejected_);
  return h;
}

}  // namespace wrt::wrtring
