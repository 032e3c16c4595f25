// Protocol trace walkthrough: script a short stormy session with the
// Scenario DSL, then print the journal's protocol timeline and digests —
// the debugging workflow for anyone extending the protocol.
//
//   $ build/examples/protocol_trace
#include <iostream>

#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/report.hpp"
#include "wrtring/scenario.hpp"

int main() {
  using namespace wrt;

  phy::Topology topology(phy::placement::circle(8, 10.0),
                         phy::RadioParams{18.0, 0.0});
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  config.auto_rejoin = true;
  wrtring::Engine engine(&topology, config, 33);
  // Sized so the 21k-slot session never wraps a station's ring; attached
  // before init() so the timeline opens with the first SAT launch.
  telemetry::Journal journal(/*capacity_per_station=*/1 << 15);
  engine.set_journal(&journal);
  if (!engine.init().ok()) return 1;
  for (NodeId n = 0; n < 8; ++n) {
    traffic::FlowSpec spec;
    spec.id = n;
    spec.src = n;
    spec.dst = static_cast<NodeId>((n + 4) % 8);
    spec.cls = TrafficClass::kRealTime;
    spec.kind = traffic::ArrivalKind::kCbr;
    spec.period_slots = 60.0;
    spec.deadline_slots = 1 << 20;
    engine.add_source(spec);
  }

  const NodeId newcomer =
      topology.add_node((topology.position(0) + topology.position(1)) * 0.5);

  wrtring::Scenario script;
  script.mark_at(0, "session start")
      .drop_sat_at(400)
      .join_at(1500, newcomer, {1, 1})
      .kill_at(9000, 5)
      .leave_at(16000, 2)
      .mark_at(20000, "session end");

  const auto log = script.run(engine, topology, 21000);

  std::cout << "--- scenario log (scripted + automatic entries) ---\n";
  for (const auto& entry : log) {
    std::cout << "  [" << entry.slot << "] " << entry.what << " (ring "
              << entry.ring_size << ")\n";
  }

  // The RAP fires every round (that is its job), so filter it out of the
  // printout to surface the interesting transitions.
  std::cout << "\n--- protocol timeline (RAP starts elided; "
            << journal.total_dropped() << " records dropped) ---\n";
  for (const auto& [station, event] : journal.timeline()) {
    if (!telemetry::is_protocol_event(event.kind) ||
        event.kind == telemetry::JournalKind::kRapStart) {
      continue;
    }
    std::cout << "  [" << ticks_to_slots(event.tick) << "] "
              << telemetry::to_string(event.kind) << " station=" << station
              << " arg=" << event.arg << '\n';
  }

  std::cout << '\n';
  wrtring::resilience_report(engine).print(std::cout);
  std::cout << '\n';
  wrtring::guarantee_report(engine).print(std::cout);

  const auto audit = engine.check_invariants();
  std::cout << "\ninvariant audit: "
            << (audit.ok() ? "clean" : audit.error().message) << '\n';
  return audit.ok() ? 0 : 1;
}
