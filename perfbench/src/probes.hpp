// Layer probes shared by the ring and federation workloads: calls into one
// layer, timed or checked from outside the engine.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "phy/topology.hpp"
#include "wrtring/engine.hpp"

namespace perfbench {

/// The right-hand side of the engine's frame-accounting identity:
/// data_transmissions == delivered + frames_lost_{link,rebuild,churn} +
/// frames_dropped_stale + frames_in_flight().
std::uint64_t frames_accounted(const wrt::wrtring::Engine& engine);

/// Mean host time (µs) of one cdma::Channel slot on `topology` with the
/// engine's codes: begin_slot, one transmit per ring hop, end_slot.
double cdma_slot_us(const wrt::phy::Topology& topology,
                    const wrt::wrtring::Engine& engine, int reps);

/// Integer work counters of one ring, or summed over several.
struct WorkCounts {
  std::uint64_t sat_hops = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t transit_fwd = 0;
  std::uint64_t delivered = 0;
  std::uint64_t frames_lost = 0;  ///< link + rebuild + churn + stale drops
  std::uint64_t cut_outs = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t joins = 0;
  std::uint64_t join_retries = 0;
  std::uint64_t cdma_collisions = 0;
  std::uint64_t header_decode_failures = 0;

  void add(const wrt::wrtring::EngineStats& stats);
  /// Sets the wrtring.* work metrics: counts per 1k ring-slots, the
  /// delivered/tx and hops/delivery ratios, and the CDMA error counts.
  void report(Metrics& layers, double ring_slots) const;
};

}  // namespace perfbench
