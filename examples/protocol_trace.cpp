// Protocol trace walkthrough: script a short stormy session as a FaultPlan,
// run it with wrtring::run_plan, then print the journal's protocol
// timeline and digests — the debugging workflow for anyone extending the
// protocol.
//
//   $ build/examples/protocol_trace
#include <iostream>
#include <string>

#include "analysis/bounds.hpp"
#include "fault/fault_plan.hpp"
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

  const auto script = fault::FaultPlan::parse(
      "@0 mark session start\n"
      "@400 drop-sat\n"
      "@1500 join " + std::to_string(newcomer) + " l=1 k=1\n"
      "@9000 crash 5\n"
      "@16000 leave 2\n"
      "@20000 mark session end\n");
  if (!script.ok()) return 1;

  const auto log = wrtring::run_plan(script.value(), engine, topology, 21000);

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
