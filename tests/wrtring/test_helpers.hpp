// Shared fixtures for WRT-Ring engine tests.
#pragma once

#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring::testing {

/// N stations on a circle with radio range covering ~2 hops, so the ring is
/// buildable and stays repairable after one station is cut out.
inline phy::Topology circle_topology(std::size_t n,
                                     double range_hops = 2.4) {
  const double radius = 10.0;
  const double chord =
      2.0 * radius * std::sin(std::numbers::pi / static_cast<double>(n));
  return phy::Topology(phy::placement::circle(n, radius),
                       phy::RadioParams{chord * range_hops, 0.0});
}

struct Harness {
  /// A non-null `journal` is attached before init(), so it also holds the
  /// initial SAT launch.
  Harness(std::size_t n, Config config, std::uint64_t seed = 1,
          double range_hops = 2.4, telemetry::Journal* journal = nullptr)
      : topology(circle_topology(n, range_hops)),
        engine(&topology, std::move(config), seed) {
    engine.set_journal(journal);
    const auto status = engine.init();
    if (!status.ok()) {
      throw std::runtime_error("engine init failed: " +
                               status.error().message);
    }
  }

  phy::Topology topology;
  Engine engine;
};

/// A real-time flow from station `src` to the diametrically opposite
/// station (worst-case ring distance).
inline traffic::FlowSpec rt_flow(FlowId id, NodeId src, std::size_t n,
                                 double period_slots = 8.0,
                                 std::int64_t deadline_slots = 10000) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = static_cast<NodeId>((src + n / 2) % n);
  spec.cls = TrafficClass::kRealTime;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = period_slots;
  spec.deadline_slots = deadline_slots;
  return spec;
}

inline traffic::FlowSpec be_flow(FlowId id, NodeId src, std::size_t n,
                                 double rate_per_slot = 0.2) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = static_cast<NodeId>((src + 1) % n);
  spec.cls = TrafficClass::kBestEffort;
  spec.kind = traffic::ArrivalKind::kPoisson;
  spec.rate_per_slot = rate_per_slot;
  return spec;
}

/// Journal timeline records of one kind, oldest first.
inline std::vector<telemetry::StationEvent> of_kind(
    const std::vector<telemetry::StationEvent>& timeline,
    telemetry::JournalKind kind) {
  std::vector<telemetry::StationEvent> result;
  for (const auto& record : timeline) {
    if (record.event.kind == kind) result.push_back(record);
  }
  return result;
}

/// True iff both kinds occur and the earliest `a` is no later than the
/// earliest `b`.
inline bool ordered(const std::vector<telemetry::StationEvent>& timeline,
                    telemetry::JournalKind a, telemetry::JournalKind b) {
  const telemetry::StationEvent* first_a = nullptr;
  const telemetry::StationEvent* first_b = nullptr;
  for (const auto& record : timeline) {
    if (first_a == nullptr && record.event.kind == a) first_a = &record;
    if (first_b == nullptr && record.event.kind == b) first_b = &record;
  }
  return first_a != nullptr && first_b != nullptr &&
         first_a->event.tick <= first_b->event.tick;
}

}  // namespace wrt::wrtring::testing
