// federation: a FederationEngine with K=8 shards on W=4 worker threads,
// 512 rings of 16 stations, epoch E=16 slots, stepped one run_epochs(1)
// at a time.  The only workload with threads, mailboxes and the Diffserv
// backbone.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cdma/code_assignment.hpp"
#include "probes.hpp"
#include "ring/virtual_ring.hpp"
#include "workloads.hpp"
#include "wrtring/federation.hpp"

namespace perfbench {
namespace {

using namespace wrt;

constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kWorkers = 4;
constexpr std::uint32_t kRings = 512;
constexpr std::uint32_t kStations = 16;
constexpr std::int64_t kEpochSlots = 16;
/// One chunk is 8 epochs: one epoch is ~1 ms, and on a shared host the
/// p90 of single epochs followed other tenants' load (spread 0.5 across
/// identical runs).  Per-epoch times are in the traced run.
constexpr std::int64_t kEpochsPerChunk = 8;
constexpr std::int64_t kChunks = 96;
constexpr std::int64_t kEpochs = kEpochsPerChunk * kChunks;
/// Every ring's invariants are audited once per this many chunks (a
/// rotating 1/kAuditStride of the rings after each chunk).
constexpr std::uint32_t kAuditStride = 8;

/// The bench_federation fabric at this workload's size.
wrtring::FederationConfig make_config(std::uint32_t workers) {
  wrtring::FederationConfig config;
  config.shards = kShards;
  config.worker_threads = workers;
  config.epoch_slots = kEpochSlots;
  config.rings = kRings;
  config.stations_per_ring = kStations;
  config.saturated_per_ring = 2;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_service_rate = 8.0;
  config.backbone_premium_capacity = 2.0;
  return config;
}

struct Crossings {
  std::uint64_t posted = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t in_flight = 0;
  std::size_t backbone_depth_max = 0;
};

Crossings crossings(const wrtring::FederationEngine& federation) {
  Crossings sum;
  for (std::uint32_t s = 0; s < federation.shard_count(); ++s) {
    const wrtring::FederationShard& shard = federation.shard(s);
    const wrtring::ShardCounters& counters = shard.counters();
    sum.posted += counters.crossings_posted;
    sum.injected += counters.crossings_injected;
    sum.delivered += counters.crossings_delivered;
    sum.drops += counters.crossing_drops;
    sum.tail_drops += shard.backbone().tail_drops();
    sum.in_flight += shard.in_flight();
    sum.backbone_depth_max =
        std::max(sum.backbone_depth_max, shard.backbone().queue_depth());
  }
  return sum;
}

/// Σ over rings of the frame-accounting identity's two sides.
bool rings_conserve_frames(const wrtring::FederationEngine& federation,
                           std::string& why) {
  for (std::uint32_t r = 0; r < federation.ring_count(); ++r) {
    const wrtring::Engine& engine = federation.ring_engine(r);
    const wrtring::EngineStats& s = engine.stats();
    const std::uint64_t accounted = frames_accounted(engine);
    if (s.data_transmissions != accounted) {
      why = "ring " + std::to_string(r) + " frame conservation: " +
            std::to_string(s.data_transmissions) + " != " +
            std::to_string(accounted);
      return false;
    }
  }
  return true;
}

double slots_quantile(std::vector<Tick> ticks, double q) {
  std::vector<double> slots;
  slots.reserve(ticks.size());
  for (const Tick t : ticks) slots.push_back(ticks_to_slots_real(t));
  return quantile(std::move(slots), q);
}

std::uint64_t total_busy_ns(const wrtring::FederationEngine& federation) {
  std::int64_t busy = 0;
  for (std::uint32_t s = 0; s < federation.shard_count(); ++s) {
    busy += federation.shard(s).busy_ns_total();
  }
  return static_cast<std::uint64_t>(busy);
}

}  // namespace

RepResult run_federation(const RunContext& context) {
  Tracer& tracer = *context.tracer;
  const bool traced = context.traced();
  RepResult result;

  const std::int64_t t0 = now_ns();
  wrtring::FederationEngine federation(make_config(kWorkers), context.seed);
  util::Status init;
  {
    Tracer::Scope span(tracer, "setup.federation_init");
    init = federation.init();
  }
  result.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!init.ok()) {
    result.fail("init: " + init.error().message);
    return result;
  }
  const double setup_rss = rss_mb();
  Metrics& layers = result.layers;
  if (traced) {
    // FederationEngine::init builds every ring's topology, ring and codes
    // internally; time the same calls on the same geometry from outside.
    layers.set("mem.setup_mb", setup_rss, "MB");
    layers.set("wrtring.init_ms", result.setup_s * 1e3, "ms");
    std::int64_t topo_ns = 0;
    std::int64_t build_ns = 0;
    std::int64_t assign_ns = 0;
    for (std::uint32_t r = 0; r < kRings; ++r) {
      std::int64_t a = now_ns();
      const phy::Topology topology = bench::ring_room(kStations);
      std::int64_t b = now_ns();
      topo_ns += b - a;
      (void)ring::build_ring_over(topology, ring::largest_component(topology));
      a = now_ns();
      build_ns += a - b;
      (void)cdma::assign_greedy_two_hop(topology);
      assign_ns += now_ns() - a;
    }
    layers.set("phy.topology_ms", static_cast<double>(topo_ns) / 1e6, "ms");
    layers.set("ring.build_ms", static_cast<double>(build_ns) / 1e6, "ms");
    layers.set("cdma.assign_ms", static_cast<double>(assign_ns) / 1e6, "ms");
    layers.set("traffic.attach_ms", 0.0, "ms");  // inside init, not separable

    layers.set("cdma.slot_us",
               cdma_slot_us(bench::ring_room(kStations),
                            federation.ring_engine(0), 256),
               "us");
  }

  const double station_slots_per_chunk =
      static_cast<double>(federation.total_stations()) * kEpochSlots *
      kEpochsPerChunk;
  std::uint64_t ring_samples = 0;     ///< (ring, chunk) pairs sampled
  std::uint64_t ring_samples_up = 0;  ///< ... with the SAT circulating

  // Traced-only per-epoch accumulators.
  std::vector<double> epoch_ms;
  double shard_max_ms = 0.0;
  double shard_mean_ms = 0.0;
  double worker_max_ms = 0.0;
  double overhead_ms = 0.0;
  double imbalance = 0.0;
  double busy_sum_ms = 0.0;
  double wall_sum_ms = 0.0;
  std::uint64_t in_flight_max = 0;
  std::size_t depth_max = 0;

  for (std::int64_t c = 0; c < kChunks; ++c) {
    std::uint64_t posted_before_last = 0;
    const std::int64_t c0 = now_ns();
    {
      Tracer::Scope chunk_span(tracer, "chunk");
      for (std::int64_t e = 0; e < kEpochsPerChunk; ++e) {
        if (e + 1 == kEpochsPerChunk) {
          posted_before_last = crossings(federation).posted;
        }
        const std::int64_t e0 = now_ns();
        {
          Tracer::Scope span(tracer, "epoch");
          federation.run_epochs(1);
        }
        if (traced) {
          const double ms = static_cast<double>(now_ns() - e0) / 1e6;
          epoch_ms.push_back(ms);
          double max_ns = 0.0;
          double sum_ns = 0.0;
          std::vector<double> worker_ns(kWorkers, 0.0);
          for (std::uint32_t s = 0; s < kShards; ++s) {
            const auto busy =
                static_cast<double>(federation.shard(s).last_epoch_busy_ns());
            max_ns = std::max(max_ns, busy);
            sum_ns += busy;
            worker_ns[s % kWorkers] += busy;
          }
          const double worker_max =
              *std::max_element(worker_ns.begin(), worker_ns.end()) / 1e6;
          shard_max_ms += max_ns / 1e6;
          shard_mean_ms += sum_ns / kShards / 1e6;
          worker_max_ms += worker_max;
          overhead_ms += ms - worker_max;
          imbalance += sum_ns > 0.0 ? max_ns / (sum_ns / kShards) : 0.0;
          busy_sum_ms += sum_ns / 1e6;
          wall_sum_ms += ms;
          const Crossings now = crossings(federation);
          in_flight_max = std::max(in_flight_max, now.in_flight);
          depth_max = std::max(depth_max, now.backbone_depth_max);
        }
      }
    }
    const double ms = static_cast<double>(now_ns() - c0) / 1e6;
    result.chunk_ms.push_back(ms);
    result.measured_s += ms / 1e3;
    result.station_slots += station_slots_per_chunk;

    // Post-chunk checks, outside the chunk timer.
    bool ok = true;
    const auto check = [&](bool condition, const std::string& why) {
      if (!condition && ok) {
        ok = false;
        result.fail("chunk " + std::to_string(c) + ": " + why);
      }
    };
    // Every crossing posted before the last epoch was drained at its
    // start; the ones posted during it wait in the mailboxes.
    const Crossings sum = crossings(federation);
    const std::uint64_t accounted = sum.injected + sum.drops +
                                    sum.tail_drops + sum.in_flight +
                                    (sum.posted - posted_before_last);
    check(sum.posted == accounted,
          "crossing conservation: posted " + std::to_string(sum.posted) +
              " != accounted " + std::to_string(accounted));
    std::string why;
    check(rings_conserve_frames(federation, why), why);
    for (std::uint32_t r = static_cast<std::uint32_t>(c) % kAuditStride;
         r < kRings; r += kAuditStride) {
      const util::Status status = federation.ring_engine(r).check_invariants();
      check(status.ok(), status.ok() ? "" : "ring " + std::to_string(r) +
                                                " invariants: " +
                                                status.error().message);
    }
    for (std::uint32_t r = 0; r < kRings; ++r) {
      const wrtring::SatState state = federation.ring_engine(r).sat_state();
      if (state == wrtring::SatState::kInTransit ||
          state == wrtring::SatState::kHeld) {
        ++ring_samples_up;
      }
    }
    ring_samples += kRings;
  }

  const Crossings sum = crossings(federation);
  const wrtring::FederationStats stats = federation.stats();
  result.outputs.set("delivered_frac",
                     sum.posted > 0 ? static_cast<double>(sum.delivered) /
                                          static_cast<double>(sum.posted)
                                    : 0.0,
                     "ratio");
  result.outputs.set("rt_delay_p99_slots",
                     slots_quantile(federation.rt_crossing_delay_ticks(), 0.99),
                     "slots");
  result.outputs.set("ring_up_frac",
                     static_cast<double>(ring_samples_up) /
                         static_cast<double>(std::max<std::uint64_t>(
                             ring_samples, 1)),
                     "ratio");
  result.digest = federation.digest();

  if (!traced) return result;
  const double epochs = static_cast<double>(kEpochs);
  layers.set("federation.epoch_ms_p50", median(epoch_ms), "ms");
  layers.set("federation.epoch_ms_p90", quantile(epoch_ms, 0.9), "ms");
  layers.set("federation.shard_busy_ms_max", shard_max_ms / epochs, "ms");
  layers.set("federation.shard_busy_ms_mean", shard_mean_ms / epochs, "ms");
  layers.set("federation.worker_busy_ms_max", worker_max_ms / epochs, "ms");
  layers.set("federation.epoch_overhead_ms", overhead_ms / epochs, "ms");
  layers.set("federation.imbalance", imbalance / epochs, "ratio");
  layers.set("federation.parallel_eff",
             wall_sum_ms > 0.0 ? busy_sum_ms / (kWorkers * wall_sum_ms) : 0.0,
             "ratio");
  layers.set("federation.crossings_posted", static_cast<double>(sum.posted),
             "count");
  layers.set("federation.crossings_delivered",
             static_cast<double>(sum.delivered), "count");
  layers.set("federation.crossings_drops", static_cast<double>(sum.drops),
             "count");
  layers.set("federation.in_flight_max", static_cast<double>(in_flight_max),
             "count");
  layers.set("diffserv.backbone_depth_max", static_cast<double>(depth_max),
             "count");
  layers.set("diffserv.tail_drops", static_cast<double>(sum.tail_drops),
             "count");

  // Work counts over every ring, per 1k ring-slots.
  WorkCounts work;
  for (std::uint32_t r = 0; r < kRings; ++r) {
    work.add(federation.ring_engine(r).stats());
  }
  work.report(layers, static_cast<double>(stats.ring_slots));
  layers.set("mem.growth_mb_per_kslot",
             (rss_mb() - setup_rss) / (static_cast<double>(kEpochs) *
                                       kEpochSlots / 1e3),
             "MB/kslot");

  // Contention attribution: the same seed on one worker.  Its digest must
  // match (W is execution only); its shard busy time is the uncontended
  // baseline.
  const std::uint64_t busy_w = total_busy_ns(federation);
  wrtring::FederationEngine serial(make_config(1), context.seed);
  if (!serial.init().ok()) {
    result.fail("W=1 init failed");
    return result;
  }
  {
    Tracer::Scope span(tracer, "federation.serial_replay");
    serial.run_epochs(kEpochs);
  }
  if (serial.digest() != result.digest) {
    result.fail("federation digest differs between W=" +
                std::to_string(kWorkers) + " and W=1");
  }
  const std::uint64_t busy_1 = total_busy_ns(serial);
  layers.set("federation.busy_inflation",
             busy_1 > 0 ? static_cast<double>(busy_w) /
                              static_cast<double>(busy_1)
                        : 0.0,
             "ratio");
  return result;
}

}  // namespace perfbench
