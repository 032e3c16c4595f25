#include "wrtring/scenario.hpp"

#include <algorithm>

namespace wrt::wrtring {
namespace {

/// One timed event.  A flap's restore step is a link-heal that only
/// restores the topology link (`restore_only`).
struct Step {
  fault::FaultEvent event;
  bool restore_only = false;
};

/// The plan's events in slot order, each flap replaced by its break /
/// restore steps at the flap's position (ties keep plan order).
std::vector<Step> expand(const fault::FaultPlan& plan) {
  std::vector<Step> steps;
  for (const fault::FaultEvent& event : plan.events) {
    if (event.kind != fault::FaultKind::kFlap) {
      steps.push_back({event, false});
      continue;
    }
    // Down for the first duty_pct percent of each period (at least 1 slot,
    // at most period - 1 so the link is also provably up every cycle).
    const std::int64_t down = std::clamp<std::int64_t>(
        event.period_slots * event.duty_pct / 100, 1,
        event.period_slots - 1);
    for (std::uint32_t c = 0; c < event.cycles; ++c) {
      fault::FaultEvent cut;
      cut.kind = fault::FaultKind::kLinkBreak;
      cut.a = event.a;
      cut.b = event.b;
      cut.slot =
          event.slot + static_cast<std::int64_t>(c) * event.period_slots;
      fault::FaultEvent restore = cut;
      restore.kind = fault::FaultKind::kLinkHeal;
      restore.slot = cut.slot + down;
      steps.push_back({std::move(cut), false});
      steps.push_back({std::move(restore), true});
    }
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& x, const Step& y) {
                     return x.event.slot < y.event.slot;
                   });
  return steps;
}

/// Applies one step; returns the engine's refusal, if any, for the log.
std::string apply(const Step& step, Engine& engine,
                  phy::Topology& topology) {
  const fault::FaultEvent& event = step.event;
  switch (event.kind) {
    case fault::FaultKind::kJoin:
      topology.set_alive(event.a, true);
      engine.request_join(event.a, event.quota);
      break;
    case fault::FaultKind::kLeave:
      if (const auto status = engine.request_leave(event.a); !status.ok()) {
        return "leave refused: " + status.error().message;
      }
      break;
    case fault::FaultKind::kCrash:
      engine.kill_station(event.a);
      break;
    case fault::FaultKind::kStall:
      engine.stall_station(event.a);
      break;
    case fault::FaultKind::kResume:
      engine.resume_station(event.a);
      break;
    case fault::FaultKind::kDropSat:
      engine.drop_sat_once();
      break;
    case fault::FaultKind::kDropControl:
      engine.drop_control_once(
          static_cast<Engine::ControlMsg>(event.control_msg));
      break;
    case fault::FaultKind::kLinkBreak:
      topology.fail_link(event.a, event.b);
      break;
    case fault::FaultKind::kLinkHeal:
      // A plan's link-heal undoes whichever hit the link: the GE override,
      // the hard break, or both.
      if (!step.restore_only) engine.heal_link(event.a, event.b);
      topology.restore_link(event.a, event.b);
      break;
    case fault::FaultKind::kLinkDegrade:
      engine.degrade_link(event.a, event.b, event.ge);
      break;
    case fault::FaultKind::kPartition:
      topology.set_partition(event.groups);
      break;
    case fault::FaultKind::kHealPartition:
      topology.clear_partition();
      break;
    case fault::FaultKind::kForceSwitch:
      if (const auto status = engine.force_switch(event.a); !status.ok()) {
        return "force switch refused: " + status.error().message;
      }
      break;
    case fault::FaultKind::kClearSwitch:
      engine.clear_force_switch(event.a);
      break;
    case fault::FaultKind::kFlap:  // expanded into steps
    case fault::FaultKind::kMark:
      break;
  }
  return {};
}

}  // namespace

std::vector<ScenarioLogEntry> run_plan(const fault::FaultPlan& plan,
                                       Engine& engine,
                                       phy::Topology& topology,
                                       std::int64_t until_slot,
                                       phy::MobilityModel* mobility,
                                       std::int64_t mobility_period_slots) {
  const std::vector<Step> steps = expand(plan);
  std::vector<ScenarioLogEntry> log;
  const auto record = [&](std::string what) {
    log.push_back({engine.now_slots(), std::move(what),
                   engine.virtual_ring().size(), engine.sat_state()});
  };

  std::size_t next = 0;
  std::size_t last_ring_size = engine.virtual_ring().size();
  std::int64_t last_mobility = engine.now_slots();

  while (engine.now_slots() < until_slot) {
    for (; next < steps.size() && steps[next].event.slot <= engine.now_slots();
         ++next) {
      if (std::string refusal = apply(steps[next], engine, topology);
          !refusal.empty()) {
        record(std::move(refusal));
      }
      record(fault::to_text(steps[next].event));
    }

    if (mobility != nullptr &&
        engine.now_slots() - last_mobility >= mobility_period_slots) {
      mobility->step(topology, engine.now(),
                     slots_to_ticks(engine.now_slots() - last_mobility));
      last_mobility = engine.now_slots();
    }

    engine.step();

    if (engine.virtual_ring().size() != last_ring_size) {
      record(engine.virtual_ring().size() > last_ring_size ? "ring grew"
                                                           : "ring shrank");
      last_ring_size = engine.virtual_ring().size();
    }
  }
  return log;
}

}  // namespace wrt::wrtring
