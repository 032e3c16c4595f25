// wrt_perfbench: one workload, one seed, one process.
//
//   wrt_perfbench --workload <ring_clean|ring_churn|ring_fidelity|federation>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//
// Runs repetitions of the workload (each one set up from nothing, with the
// same seed) until --seconds of wall time have passed, and at least three.
// Every repetition must reproduce the first one's simulated outputs and
// sim_digest exactly.  With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it first runs one traced repetition (per-layer metrics,
// spans kept in memory and written to --trace-out as Chrome trace_event
// JSON) and then untraced ones for the trace_overhead baseline.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": chunks, "failed": chunks, "metrics": {...}}
// The line before it is a JSON record with the run metadata and the
// simulated outputs.  Exit status: 0 when every output check passed, 1 when
// one failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_GIT_REV
#define PERFBENCH_GIT_REV "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WRT_TELEMETRY_LEVEL
#define WRT_TELEMETRY_LEVEL -1
#endif

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  RepResult (*run)(const RunContext&);
};

constexpr Workload kWorkloads[] = {
    {"ring_clean", run_ring_clean},
    {"ring_churn", run_ring_churn},
    {"ring_fidelity", run_ring_fidelity},
    {"federation", run_federation},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"station_slots_per_s", "1/s"},
    {"chunk_ms_p50", "ms"},
    {"chunk_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"delivered_frac", "ratio"},
    {"rt_delay_p99_slots", "slots"},
};

/// Per-layer metrics (--trace 1), in BENCHMARK.json order.  A layer a
/// workload leaves idle reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"phy.topology_ms", "ms"},
    {"ring.build_ms", "ms"},
    {"cdma.assign_ms", "ms"},
    {"wrtring.init_ms", "ms"},
    {"traffic.attach_ms", "ms"},
    {"wrtring.step_ns_p50", "ns"},
    {"wrtring.step_ns_p99", "ns"},
    {"wrtring.slots.circulating", "count"},
    {"wrtring.slots.lost", "count"},
    {"wrtring.slots.rebuilding", "count"},
    {"wrtring.slots.rap", "count"},
    {"wrtring.busy_ms.circulating", "ms"},
    {"wrtring.busy_ms.lost", "ms"},
    {"wrtring.busy_ms.rebuilding", "ms"},
    {"wrtring.busy_ms.rap", "ms"},
    {"wrtring.rebuild_host_share", "ratio"},
    {"wrtring.sat_hops", "count/kslot"},
    {"wrtring.data_tx", "count/kslot"},
    {"wrtring.transit_fwd", "count/kslot"},
    {"wrtring.delivered", "count/kslot"},
    {"wrtring.frames_lost", "count/kslot"},
    {"wrtring.cut_outs", "count/kslot"},
    {"wrtring.rebuilds", "count/kslot"},
    {"wrtring.joins", "count/kslot"},
    {"wrtring.join_retries", "count/kslot"},
    {"wrtring.delivered_per_tx", "ratio"},
    {"wrtring.hops_per_delivery", "ratio"},
    {"wrtring.membership_calls", "count"},
    {"wrtring.membership_call_us", "us"},
    {"wrtring.membership_settle_ms", "ms"},
    {"ring.reform_probes", "count"},
    {"ring.reform_probe_ms", "ms"},
    {"ring.reform_probe_ok", "ratio"},
    {"cdma.slot_us", "us"},
    {"wrtring.cdma_collisions", "count"},
    {"wrtring.header_decode_failures", "count"},
    {"federation.epoch_ms_p50", "ms"},
    {"federation.epoch_ms_p90", "ms"},
    {"federation.shard_busy_ms_max", "ms"},
    {"federation.shard_busy_ms_mean", "ms"},
    {"federation.worker_busy_ms_max", "ms"},
    {"federation.epoch_overhead_ms", "ms"},
    {"federation.imbalance", "ratio"},
    {"federation.parallel_eff", "ratio"},
    {"federation.busy_inflation", "ratio"},
    {"federation.crossings_posted", "count"},
    {"federation.crossings_delivered", "count"},
    {"federation.crossings_drops", "count"},
    {"federation.in_flight_max", "count"},
    {"diffserv.backbone_depth_max", "count"},
    {"diffserv.tail_drops", "count"},
    {"app.score_ms", "ms"},
    {"mem.setup_mb", "MB"},
    {"mem.growth_mb_per_kslot", "MB/kslot"},
    {"trace_overhead", "ratio"},
};

constexpr int kMinReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wrt_perfbench: %s\nusage: wrt_perfbench --workload "
               "<ring_clean|ring_churn|ring_fidelity|federation> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Repetitions of one kind (traced or not) and what they add up to.
struct RepSet {
  std::vector<RepResult> reps;
  [[nodiscard]] double throughput() const {
    double slots = 0.0;
    double seconds = 0.0;
    for (const RepResult& rep : reps) {
      slots += rep.station_slots;
      seconds += rep.measured_s;
    }
    return seconds > 0.0 ? slots / seconds : 0.0;
  }
};

/// Per chunk index, the least wall time over the repetitions that ran every
/// chunk (a repetition whose setup failed ran none).
std::vector<double> best_chunk_ms(const std::vector<RepResult>& reps) {
  std::vector<double> best = reps.front().chunk_ms;
  for (const RepResult& rep : reps) {
    if (rep.chunk_ms.size() != best.size()) continue;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], rep.chunk_ms[i]);
    }
  }
  return best;
}

/// Runs repetitions until `budget_s` has passed and at least `min_reps`.
void run_reps(const Workload& workload, const Options& options, Tracer& tracer,
              double budget_s, int min_reps, RepSet& set) {
  const std::int64_t start = now_ns();
  RunContext context;
  context.seed = options.seed;
  context.tracer = &tracer;
  while (static_cast<int>(set.reps.size()) < min_reps ||
         static_cast<double>(now_ns() - start) / 1e9 < budget_s) {
    set.reps.push_back(workload.run(context));
    if (set.reps.back().chunk_ms.empty()) break;  // setup failed
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());

  Tracer tracer(options.trace);
  Tracer untraced(false);
  RepSet traced_set;
  RepSet plain;
  if (options.trace) {
    run_reps(*workload, options, tracer, 0.0, 1, traced_set);
    run_reps(*workload, options, untraced, options.seconds / 2, 1, plain);
  } else {
    run_reps(*workload, options, untraced, options.seconds, kMinReps, plain);
  }
  const double peak_rss = peak_rss_mb();

  // Correctness: every chunk's checks, and every repetition reproducing the
  // first one's simulation exactly.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const RepResult& first = plain.reps.front();
  for (const RepSet* set : {&traced_set, &plain}) {
    for (const RepResult& rep : set->reps) {
      attempted += std::max<std::size_t>(rep.chunk_ms.size(), 1);
      failed += rep.failed_chunks;
      failures.insert(failures.end(), rep.failures.begin(), rep.failures.end());
      bool same = rep.digest == first.digest;
      for (const Metric& output : first.outputs.all()) {
        same = same && rep.outputs.value(output.name) == output.value;
      }
      if (!same) {
        ++failed;
        failures.push_back("repetition diverged from the first (digest or "
                           "simulated outputs differ)");
      }
    }
  }
  const bool correct = failed == 0;

  Metrics metrics;
  if (options.trace) {
    const RepResult& rep = traced_set.reps.front();
    const double base = plain.throughput();
    const double with_trace = traced_set.throughput();
    for (const MetricSpec& spec : kPerLayer) {
      metrics.set(spec.name, rep.layers.value(spec.name), spec.unit);
    }
    metrics.set("trace_overhead",
                with_trace > 0.0 ? base / with_trace - 1.0 : 0.0, "ratio");
    if (!options.trace_out.empty() && !tracer.write_chrome(options.trace_out)) {
      std::fprintf(stderr, "wrt_perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  } else {
    // Every repetition simulates the same slots, so chunk i does the same
    // work in each one.  Load from other tenants of a shared host only
    // ever slows a chunk down, and it comes in phases of seconds, so the
    // chunk's time is its best over the repetitions; throughput and the
    // chunk quantiles are taken over those best times.  setup_s is the
    // median over repetitions.
    const std::vector<double> chunk_ms = best_chunk_ms(plain.reps);
    double measured_ms = 0.0;
    for (const double ms : chunk_ms) measured_ms += ms;
    std::vector<double> setup;
    for (const RepResult& rep : plain.reps) setup.push_back(rep.setup_s);
    metrics.set("setup_s", median(setup), "s");
    metrics.set("station_slots_per_s",
                measured_ms > 0.0 ? first.station_slots / (measured_ms / 1e3)
                                  : 0.0,
                "1/s");
    metrics.set("chunk_ms_p50", quantile(chunk_ms, 0.5), "ms");
    metrics.set("chunk_ms_p90", quantile(chunk_ms, 0.9), "ms");
    metrics.set("peak_rss_mb", peak_rss, "MB");
    for (const MetricSpec& spec : kEndToEnd) {
      if (first.outputs.find(spec.name) != nullptr) {
        metrics.set(spec.name, first.outputs.value(spec.name), spec.unit);
      }
    }
  }

  // Human-readable report.
  std::size_t chunk_count = 0;
  for (const RepResult& rep : plain.reps) chunk_count += rep.chunk_ms.size();
  std::printf("perfbench %s seed=%llu trace=%d reps=%zu+%zu chunks=%zu\n",
              workload->name, static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, traced_set.reps.size(),
              plain.reps.size(), chunk_count);
  for (const Metric& metric : metrics.all()) {
    std::printf("  %-34s %-22.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("simulated outputs (seed-exact):\n");
  std::printf("  %-34s %016llx\n", "sim_digest",
              static_cast<unsigned long long>(first.digest));
  std::printf("  %-34s %-22.9g ratio\n", "fail_frac",
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const Metric& output : first.outputs.all()) {
    std::printf("  %-34s %-22.9g %s\n", output.name.c_str(), output.value,
                output.unit.c_str());
  }
  if (options.trace) {
    std::printf("spans (total ms, self ms):\n");
    for (const auto& [name, times] : tracer.time_by_name()) {
      std::printf("  %-34s %12.3f %12.3f\n", name.c_str(), times.first,
                  times.second);
    }
  }
  for (const std::string& why : failures) {
    std::printf("FAILED CHECK: %s\n", why.c_str());
  }

  // Machine-readable record: metadata + simulated outputs.
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(first.digest));
  std::string record =
      "{\"perfbench_record\": {\"workload\": \"" +
      std::string(workload->name) +
      "\", \"seed\": " + std::to_string(options.seed) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"host_cpu\": \"" + json_escape(cpu_model()) +
      "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
      json_escape(__VERSION__) +
      "\", \"telemetry_level\": " + std::to_string(WRT_TELEMETRY_LEVEL) +
      ", \"git_rev\": \"" PERFBENCH_GIT_REV "\", \"reps\": " +
      std::to_string(plain.reps.size()) + ", \"sim_digest\": \"" +
      digest_hex + "\", \"outputs\": {";
  for (std::size_t i = 0; i < first.outputs.all().size(); ++i) {
    const Metric& output = first.outputs.all()[i];
    record += (i == 0 ? "\"" : ", \"") + output.name +
              "\": " + json_number(output.value);
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.all().size(); ++i) {
    const Metric& metric = metrics.all()[i];
    line += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
