// Running a FaultPlan: deterministic timelines of topology events.
//
// Experiments and examples repeatedly need "run N slots, then a station
// dies, then a joiner appears, then a link drops ...".  That script is a
// fault::FaultPlan; run_plan applies its events to an Engine (plus its
// Topology and an optional mobility model) as the simulation reaches their
// slots, with an event log recording what happened and when — so tests can
// assert on the protocol's externally visible timeline.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "phy/mobility.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

struct ScenarioLogEntry {
  std::int64_t slot = 0;
  std::string what;
  std::size_t ring_size = 0;
  SatState sat_state = SatState::kLost;
};

/// Runs the engine to `until_slot`, applying each event of `plan` when its
/// slot comes and stepping `mobility` (when non-null) every
/// `mobility_period_slots`.  A flap expands into link-break / link-heal
/// steps; a flap's link-heal only restores the topology link, while a
/// plan's link-heal also lifts a link-degrade override.  A scripted join
/// first marks its station alive (chaos plans park joiner candidates as
/// dead nodes until then).
///
/// Returns the event log: one entry per applied event, whose `what` is the
/// event's plan line without its slot (fault::to_text), preceded by "leave
/// refused: ..." / "force switch refused: ..." when the engine refuses, plus
/// "ring grew" / "ring shrank" entries for ring-size changes between steps.
[[nodiscard]] std::vector<ScenarioLogEntry> run_plan(
    const fault::FaultPlan& plan, Engine& engine, phy::Topology& topology,
    std::int64_t until_slot, phy::MobilityModel* mobility = nullptr,
    std::int64_t mobility_period_slots = 100);

}  // namespace wrt::wrtring
