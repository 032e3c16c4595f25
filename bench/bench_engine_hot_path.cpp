// Engine hot-path microbenchmark (google-benchmark).
//
// Measures steady-state slot throughput of the position-indexed engine on
// the 32-station reference ring (the restructure's acceptance criterion is
// >= 2x over the map-indexed baseline), plus the membership-churn path that
// exercises the dense-vector repack.
//
// `--digest` runs a fixed-seed 32-station scenario instead and prints the
// protocol counters; the output must be bit-identical across builds of the
// same protocol logic, so scripts/check.sh uses it as a cheap regression
// oracle for "restructure changed performance, not behaviour".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "analysis/bounds.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_gbench.hpp"
#include "traffic/trace.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

/// Initialises `engine` and backlogs every station; returns false when the
/// ring cannot be built.
bool saturate_engine(wrtring::Engine& engine, std::size_t n) {
  if (!engine.init().ok()) return false;
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 8);
  }
  return true;
}

/// Steady state: every station backlogged, no membership changes: only
/// the drained stations' saturated sources are refilled.
void BM_HotPathSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!saturate_engine(engine, n)) {
    state.SkipWithError("init failed");
    return;
  }
  engine.run_slots(256);  // past the warm-up transient
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathSteadyState)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Mixed CBR + Poisson load (the common experiment shape) rather than full
/// saturation: times the arrival schedule, which polls only due sources.
void BM_HotPathMixedLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = node % 2 == 0 ? TrafficClass::kRealTime
                             : TrafficClass::kBestEffort;
    spec.kind = node % 2 == 0 ? traffic::ArrivalKind::kCbr
                              : traffic::ArrivalKind::kPoisson;
    spec.period_slots = 8.0;
    spec.rate_per_slot = 0.125;
    engine.add_source(spec);
  }
  engine.run_slots(256);
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathMixedLoad)->Arg(32)->Arg(128);

/// Membership churn: a graceful leave plus the SAT_REC cut-out machinery
/// every iteration — the slow path the dense repack must not regress.
void BM_HotPathLeaveRejoinChurn(benchmark::State& state) {
  const std::size_t n = 32;
  for (auto _ : state) {
    state.PauseTiming();
    phy::Topology topology = bench::ring_room(n);
    wrtring::Engine engine(&topology, wrtring::Config{}, 1);
    if (!saturate_engine(engine, n)) {
      state.SkipWithError("init failed");
      return;
    }
    engine.run_slots(64);
    state.ResumeTiming();
    const NodeId leaver = engine.virtual_ring().station_at(5);
    if (engine.request_leave(leaver).ok()) {
      engine.run_slots(256);
    }
    benchmark::DoNotOptimize(engine.stats().leaves_completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotPathLeaveRejoinChurn);

/// Prints the digest counters of `engine`, each line prefixed by `prefix`.
void print_counters(const char* prefix, const wrtring::Engine& engine) {
  const auto& stats = engine.stats();
  const auto line = [prefix](const char* name, std::uint64_t value) {
    std::printf("%s%s=%llu\n", prefix, name,
                static_cast<unsigned long long>(value));
  };
  std::printf("%sring_size=%zu\n", prefix, engine.virtual_ring().size());
  line("sat_rounds", stats.sat_rounds);
  line("sat_hops", stats.sat_hops);
  line("data_transmissions", stats.data_transmissions);
  line("transit_forwards", stats.transit_forwards);
  line("delivered", stats.sink.total_delivered());
  // The digest line predates the link/teardown/churn loss splits; printing
  // the sum keeps it comparable across those accounting changes (same total
  // frames).
  line("frames_lost_link", stats.frames_lost_link + stats.frames_lost_rebuild +
                               stats.frames_lost_churn);
  line("leaves_completed", stats.leaves_completed);
  line("sat_recoveries", stats.sat_recoveries);
  std::printf("%saccess_delay_mean_milli=%lld\n", prefix,
              static_cast<long long>(stats.access_delay_slots.mean() * 1000));
  std::printf("%srotation_mean_milli=%lld\n", prefix,
              static_cast<long long>(stats.sat_rotation_slots.mean() * 1000));
}

/// Leaves station 5, kills station 11 and runs past the recovery; false on
/// a refused leave or a broken invariant.
bool leave_kill_recover(wrtring::Engine& engine) {
  const NodeId leaver = engine.virtual_ring().station_at(5);
  if (!engine.request_leave(leaver).ok()) return false;
  engine.run_slots(1000);
  engine.kill_station(engine.virtual_ring().station_at(11));
  engine.run_slots(4 * analysis::sat_time_bound(engine.ring_params()));
  engine.run_slots(2000);
  return engine.check_invariants().ok();
}

/// The arrival-path scenario: CBR, Poisson and on/off sources plus voice
/// and video traces (no saturated source), with a source added after its
/// start slot, then the same leave/kill/recovery as the saturated run.
bool run_arrival_digest() {
  const std::size_t n = 32;
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 2);
  if (!engine.init().ok()) return false;
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = node % 2 == 0 ? TrafficClass::kRealTime
                             : TrafficClass::kBestEffort;
    spec.deadline_slots = spec.cls == TrafficClass::kRealTime ? 200 : 0;
    if (node % 4 == 3) {
      engine.add_trace_source(
          node % 8 == 3
              ? traffic::make_voice_trace(traffic::VoiceParams{},
                                          slots_to_ticks(12000), node)
              : traffic::make_gop_trace(traffic::GopParams{}, 300),
          node, node, spec.dst, 200);
      continue;
    }
    spec.kind = node % 4 == 0   ? traffic::ArrivalKind::kCbr
                : node % 4 == 1 ? traffic::ArrivalKind::kPoisson
                                : traffic::ArrivalKind::kOnOff;
    spec.period_slots = 30.0 + static_cast<double>(node) / 4.0;
    spec.rate_per_slot = 0.03;
    spec.start_slot = node;
    engine.add_source(spec);
  }
  engine.run_slots(1000);
  traffic::FlowSpec late;
  late.id = 100;
  late.src = 2;
  late.dst = 20;
  late.kind = traffic::ArrivalKind::kCbr;
  late.period_slots = 16.0;
  late.start_slot = 500;
  engine.add_source(late);
  engine.run_slots(1000);
  if (!leave_kill_recover(engine)) return false;
  print_counters("arrivals.", engine);
  const auto& sink = engine.stats().sink;
  std::printf("arrivals.rt_dropped=%llu\n",
              static_cast<unsigned long long>(
                  sink.by_class(TrafficClass::kRealTime).dropped));
  std::printf("arrivals.be_dropped=%llu\n",
              static_cast<unsigned long long>(
                  sink.by_class(TrafficClass::kBestEffort).dropped));
  std::printf("arrivals.rt_deadline_misses=%llu\n",
              static_cast<unsigned long long>(
                  sink.by_class(TrafficClass::kRealTime).deadline_misses));
  return true;
}

/// Fixed-seed digest: deterministic protocol counters for a 32-station run
/// with saturation, churn, and a recovery, then the same for the arrival
/// scenario.  Any diff here means the change under test altered behaviour,
/// not just speed.
int run_digest() {
  const std::size_t n = 32;
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!saturate_engine(engine, n)) return 1;
  engine.run_slots(2000);
  if (!leave_kill_recover(engine)) {
    std::puts("digest: invariant violation");
    return 1;
  }
  print_counters("", engine);
  if (!run_arrival_digest()) {
    std::puts("digest: arrival scenario failed");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--digest") == 0) return wrt::run_digest();
  }
  wrt::bench::Reporter reporter("engine_hot_path", argc, argv);
  reporter.seed(1);
  return wrt::bench::run_gbench(reporter, argc, argv);
}
