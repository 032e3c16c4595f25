// The four perfbench workloads.  Each call runs one repetition: set the
// workload up from nothing, run its fixed number of chunks, check the
// outputs after every chunk (outside the chunk timer), and report.
//
// A repetition is deterministic in its seed: the simulated outputs and the
// digest repeat exactly, only the host times vary.  The traced variant
// additionally times every call into each layer (see README.md) and fills
// RepResult::layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;  ///< never null; disabled on untraced reps
  [[nodiscard]] bool traced() const noexcept { return tracer->enabled(); }
};

struct RepResult {
  double setup_s = 0.0;           ///< nothing -> first measured slot
  std::vector<double> chunk_ms;   ///< wall time of every measured chunk
  double measured_s = 0.0;        ///< Σ chunk wall time
  double station_slots = 0.0;     ///< simulated station-slots measured
  std::uint64_t failed_chunks = 0;
  std::vector<std::string> failures;  ///< first few failed-check messages
  std::uint64_t digest = 0;       ///< sim_digest over integer counters
  Metrics outputs;                ///< simulated outputs (seed-exact)
  Metrics layers;                 ///< per-layer metrics (traced reps only)

  /// Records a failed post-chunk check (keeps the first few messages).
  void fail(const std::string& why) {
    ++failed_chunks;
    if (failures.size() < 8) failures.push_back(why);
  }
};

RepResult run_ring_clean(const RunContext& context);
RepResult run_ring_churn(const RunContext& context);
RepResult run_ring_fidelity(const RunContext& context);
RepResult run_federation(const RunContext& context);

}  // namespace perfbench
