// Recovery walkthrough (Section 2.5): watch the SAT-loss machinery work.
// The demo drops the SAT in flight, then kills a station outright, printing
// each engine's journal of protocol events: detection (SAT_TIMER), SAT_REC
// circulation and the ring cut-out — and contrasts it against TPT's full
// tree rebuild on the same fault.
//
//   $ build/examples/recovery_demo
#include <iostream>

#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

namespace {

/// Prints the journal's protocol records at or after `from` (data-plane
/// records such as SAT hops and deliveries are skipped).
void print_protocol_events(const wrt::telemetry::Journal& journal,
                           wrt::Tick from) {
  for (const auto& [station, event] : journal.timeline()) {
    if (event.tick < from || !wrt::telemetry::is_protocol_event(event.kind)) {
      continue;
    }
    std::cout << "    | [" << wrt::ticks_to_slots(event.tick) << "] "
              << wrt::telemetry::to_string(event.kind) << " station "
              << station << " arg " << event.arg << '\n';
  }
}

}  // namespace

int main() {
  using namespace wrt;

  phy::Topology topology(phy::placement::circle(10, 10.0),
                         phy::RadioParams{15.0, 0.0});
  wrtring::Engine engine(&topology, wrtring::Config{}, 5);
  if (const auto status = engine.init(); !status.ok()) {
    std::cerr << status.error().message << '\n';
    return 1;
  }
  telemetry::Journal journal;
  engine.set_journal(&journal);
  const auto bound = analysis::sat_time_bound(engine.ring_params());
  std::cout << "10-station ring up; SAT_TIMER armed to the Theorem-1 bound ("
            << bound << " slots)\n\n";

  std::cout << "@" << engine.now_slots()
            << ": dropping the SAT in flight (transient control loss)\n";
  engine.run_slots(100);
  engine.drop_sat_once();
  const Tick dropped_at = engine.now();
  engine.run_slots(4 * bound);
  print_protocol_events(journal, dropped_at);
  std::cout << "  detection took "
            << engine.stats().sat_loss_detection_slots.max()
            << " slots (bound " << bound << "); SAT_REC cut the blamed "
            << "station out; ring size now "
            << engine.virtual_ring().size() << "\n\n";

  const NodeId victim = engine.virtual_ring().station_at(4);
  std::cout << "@" << engine.now_slots() << ": killing station " << victim
            << " (battery out, no notice)\n";
  engine.kill_station(victim);
  const Tick killed_at = engine.now();
  engine.run_slots(6 * analysis::sat_time_bound(engine.ring_params()));
  print_protocol_events(journal, killed_at);
  std::cout << "  ring size now " << engine.virtual_ring().size()
            << "; recoveries " << engine.stats().sat_recoveries
            << ", full re-formations " << engine.stats().ring_rebuilds
            << "\n\n";

  // Same death under TPT for contrast.
  std::cout << "--- same station death under TPT ---\n";
  phy::Topology room(phy::placement::circle(10, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig tpt_config;
  tpt_config.ttrt_slots = 40;
  tpt::TptEngine token(&room, tpt_config, 5);
  if (!token.init().ok()) return 1;
  telemetry::Journal token_journal;
  token.set_journal(&token_journal);
  token.run_slots(100);
  token.kill_station(4);
  token.run_slots(40 * tpt_config.ttrt_slots);
  print_protocol_events(token_journal, 0);
  std::cout << "TPT: detection bound 2*TTRT = "
            << analysis::tpt_reaction_bound(token.params())
            << " slots; claims succeeded " << token.stats().claims_succeeded
            << ", full tree rebuilds " << token.stats().tree_rebuilds << '\n';
  if (token.stats().recovery_total_slots.count() > 0 &&
      engine.stats().recovery_total_slots.count() > 0) {
    std::cout << "recovery latency: WRT-Ring "
              << engine.stats().recovery_total_slots.max()
              << " slots (cut-out) vs TPT "
              << token.stats().recovery_total_slots.max()
              << " slots (rebuild)\n";
  }
  return 0;
}
