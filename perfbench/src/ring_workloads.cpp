// Single-ring workloads: ring_clean, ring_churn and ring_fidelity.
//
// All three drive one wrtring::Engine slot by slot through its public API
// (step(), the fault/membership calls, the stats observers).  The loop is
// the same in the untraced and the traced repetition; the traced one also
// times every step (histogram, split by the SAT state seen before the
// step), every fault or membership call, and the setup calls.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "app/voice_call.hpp"
#include "bench/bench_common.hpp"
#include "cdma/code_assignment.hpp"
#include "fault/fault_plan.hpp"
#include "phy/topology.hpp"
#include "ring/virtual_ring.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "wrtring/engine.hpp"

namespace perfbench {
namespace {

using namespace wrt;

// Where the SAT was before a step; RAP takes precedence over circulation.
enum Phase : std::size_t { kCirculating, kLost, kRebuilding, kRap, kPhases };
constexpr std::array<const char*, kPhases> kPhaseNames = {
    "circulating", "lost", "rebuilding", "rap"};

Phase phase_of(const wrtring::Engine& engine) {
  switch (engine.sat_state()) {
    case wrtring::SatState::kRebuilding:
      return kRebuilding;
    case wrtring::SatState::kLost:
      return engine.in_rap() ? kRap : kLost;
    default:
      return engine.in_rap() ? kRap : kCirculating;
  }
}

bool sat_circulates(const wrtring::Engine& engine) {
  return engine.sat_state() == wrtring::SatState::kInTransit ||
         engine.sat_state() == wrtring::SatState::kHeld;
}

/// One scheduled fault or membership call.  Flaps are expanded into
/// break/restore pairs the way wrtring::Scenario expands them; a flap's
/// restore only restores the link (`restore_only`), while a plan's
/// link-heal also lifts a degrade override.
struct TimedEvent {
  fault::FaultEvent event;
  bool restore_only = false;
};

std::vector<TimedEvent> expand(const fault::FaultPlan& plan) {
  std::vector<TimedEvent> events;
  for (const fault::FaultEvent& event : plan.events) {
    if (event.kind != fault::FaultKind::kFlap) {
      events.push_back({event, false});
      continue;
    }
    const std::int64_t down = std::clamp<std::int64_t>(
        event.period_slots * event.duty_pct / 100, 1,
        event.period_slots - 1);
    for (std::uint32_t c = 0; c < event.cycles; ++c) {
      fault::FaultEvent cut = event;
      cut.kind = fault::FaultKind::kLinkBreak;
      cut.slot = event.slot + static_cast<std::int64_t>(c) * event.period_slots;
      fault::FaultEvent restore = cut;
      restore.kind = fault::FaultKind::kLinkHeal;
      restore.slot = cut.slot + down;
      events.push_back({cut, false});
      events.push_back({restore, true});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimedEvent& x, const TimedEvent& y) {
                     return x.event.slot < y.event.slot;
                   });
  return events;
}

/// Applies one event exactly as wrtring::Scenario::run does.
void dispatch(wrtring::Engine& engine, phy::Topology& topology,
              const TimedEvent& timed) {
  const fault::FaultEvent& event = timed.event;
  switch (event.kind) {
    case fault::FaultKind::kJoin:
      topology.set_alive(event.a, true);
      engine.request_join(event.a, event.quota);
      break;
    case fault::FaultKind::kLeave:
      (void)engine.request_leave(event.a);  // refusal is a legal outcome
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
          static_cast<wrtring::Engine::ControlMsg>(event.control_msg));
      break;
    case fault::FaultKind::kLinkBreak:
      topology.fail_link(event.a, event.b);
      break;
    case fault::FaultKind::kLinkHeal:
      if (!timed.restore_only) engine.heal_link(event.a, event.b);
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
      (void)engine.force_switch(event.a);  // refusal is a legal outcome
      break;
    case fault::FaultKind::kClearSwitch:
      engine.clear_force_switch(event.a);
      break;
    case fault::FaultKind::kFlap:  // expanded by expand()
    case fault::FaultKind::kMark:
      break;
  }
}

/// Span name per event kind ("fault.crash", "fault.join", ...).
const char* span_name(const TimedEvent& timed) {
  switch (timed.event.kind) {
    case fault::FaultKind::kCrash: return "fault.crash";
    case fault::FaultKind::kStall: return "fault.stall";
    case fault::FaultKind::kResume: return "fault.resume";
    case fault::FaultKind::kLeave: return "fault.leave";
    case fault::FaultKind::kLinkDegrade: return "fault.link_degrade";
    case fault::FaultKind::kLinkBreak: return "fault.link_break";
    case fault::FaultKind::kLinkHeal: return "fault.link_heal";
    case fault::FaultKind::kPartition: return "fault.partition";
    case fault::FaultKind::kHealPartition: return "fault.heal_partition";
    case fault::FaultKind::kDropSat: return "fault.drop_sat";
    case fault::FaultKind::kDropControl: return "fault.drop_control";
    case fault::FaultKind::kJoin: return "fault.join";
    case fault::FaultKind::kForceSwitch: return "fault.force_switch";
    case fault::FaultKind::kClearSwitch: return "fault.clear_switch";
    case fault::FaultKind::kFlap:
    case fault::FaultKind::kMark: break;
  }
  return "fault.other";
}

/// Calls expected to change the ring's size (membership_settle_ms).
bool changes_membership(fault::FaultKind kind) {
  return kind == fault::FaultKind::kCrash || kind == fault::FaultKind::kStall ||
         kind == fault::FaultKind::kLeave || kind == fault::FaultKind::kJoin ||
         kind == fault::FaultKind::kForceSwitch;
}

/// A workload's ring after setup, plus what its driver needs to know.
struct RingSetup {
  std::unique_ptr<phy::Topology> topology;
  std::unique_ptr<wrtring::Engine> engine;
  std::unique_ptr<app::VoiceFleet> fleet;  ///< ring_clean only
  std::vector<TimedEvent> events;          ///< ring_churn only
};

struct RingSpec {
  std::int64_t chunk_slots = 1024;
  std::int64_t chunks = 64;
  /// Fault-free workloads: zero CDMA collisions / header-decode failures
  /// and every SAT rotation strictly inside the Theorem-1 bound.
  bool clean = true;
};

std::uint64_t ring_digest(const wrtring::Engine& engine,
                          std::uint64_t up_slots) {
  const wrtring::EngineStats& s = engine.stats();
  Digest digest;
  for (const std::uint64_t word :
       {s.sat_hops, s.sat_rounds, s.data_transmissions, s.transit_forwards,
        s.frames_lost_link, s.frames_lost_rebuild, s.frames_lost_churn,
        s.frames_dropped_stale, s.control_messages_lost, s.join_retries,
        s.joins_abandoned, s.sat_losses_detected, s.sat_recoveries,
        s.cut_outs, s.spurious_cutouts, s.ring_rebuilds, s.raps_started,
        s.joins_completed, s.joins_rejected, s.leaves_completed,
        s.cdma_collisions, s.header_decode_failures,
        s.sink.total_delivered(), s.rt_access_delay_slots.count(),
        static_cast<std::uint64_t>(engine.virtual_ring().size()),
        static_cast<std::uint64_t>(engine.now_slots()), up_slots}) {
    digest.add(word);
  }
  return digest.value();
}

/// Runs the measured phase of a ring workload and fills `result`.
void drive_ring(const RunContext& context, const RingSpec& spec,
                RingSetup& setup, double setup_rss_mb, RepResult& result) {
  Tracer& tracer = *context.tracer;
  const bool traced = context.traced();
  wrtring::Engine& engine = *setup.engine;
  phy::Topology& topology = *setup.topology;
  const std::int64_t bound =
      analysis::sat_time_bound(engine.ring_params());

  std::size_t next_event = 0;
  std::uint64_t slots = 0;
  std::uint64_t up_slots = 0;
  double station_slots = 0.0;

  // Traced-only accumulators.
  Histogram step_ns;
  std::array<std::uint64_t, kPhases> phase_slots{};
  std::array<std::int64_t, kPhases> phase_ns{};
  std::vector<double> call_us;
  std::vector<double> settle_ms;
  bool settle_open = false;
  std::int64_t settle_ns = 0;
  std::size_t settle_size = 0;
  std::vector<double> probe_ms;
  std::uint64_t probe_ok = 0;

  for (std::int64_t c = 0; c < spec.chunks; ++c) {
    const std::int64_t chunk_end = engine.now_slots() + spec.chunk_slots;
    std::int64_t excluded_ns = 0;  // traced-only probes, not chunk time
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope chunk_span(tracer, "chunk");
      while (engine.now_slots() < chunk_end) {
        while (next_event < setup.events.size() &&
               setup.events[next_event].event.slot <= engine.now_slots()) {
          const TimedEvent& timed = setup.events[next_event++];
          const std::size_t size_before = engine.virtual_ring().size();
          const std::int64_t c0 = now_ns();
          {
            Tracer::Scope call_span(tracer, span_name(timed));
            dispatch(engine, topology, timed);
          }
          if (traced) {
            call_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
            if (!settle_open && changes_membership(timed.event.kind)) {
              settle_open = true;
              settle_ns = 0;
              settle_size = size_before;
            }
          }
          // A partition is followed by the re-formation it calls for, the
          // call Engine::finish_rebuild makes: part of the measured work.
          // After a link break the traced run probes the same call,
          // outside the chunk time.
          const bool reform = timed.event.kind == fault::FaultKind::kPartition;
          if (reform ||
              (traced && timed.event.kind == fault::FaultKind::kLinkBreak)) {
            const std::int64_t p0 = now_ns();
            bool ok = false;
            {
              Tracer::Scope probe_span(tracer,
                                       reform ? "ring.reform" : "probe.reform");
              ok = ring::build_ring_over(topology,
                                         ring::largest_component(topology))
                       .ok();
            }
            const std::int64_t took = now_ns() - p0;
            if (!reform) excluded_ns += took;
            probe_ms.push_back(static_cast<double>(took) / 1e6);
            if (ok) ++probe_ok;
          }
        }
        const Phase phase = phase_of(engine);
        if (sat_circulates(engine)) ++up_slots;
        station_slots += static_cast<double>(engine.virtual_ring().size());
        ++slots;
        if (!traced) {
          engine.step();
          continue;
        }
        const std::int64_t s0 = now_ns();
        engine.step();
        const std::int64_t dt = now_ns() - s0;
        step_ns.add(static_cast<std::uint64_t>(dt));
        ++phase_slots[phase];
        phase_ns[phase] += dt;
        if (settle_open) {
          settle_ns += dt;
          if (engine.virtual_ring().size() != settle_size) {
            settle_ms.push_back(static_cast<double>(settle_ns) / 1e6);
            settle_open = false;
          }
        }
      }
    }
    const double ms =
        static_cast<double>(now_ns() - t0 - excluded_ns) / 1e6;
    result.chunk_ms.push_back(ms);
    result.measured_s += ms / 1e3;

    // Post-chunk output checks, outside the chunk timer.
    bool ok = true;
    const auto check = [&](bool condition, const std::string& why) {
      if (!condition && ok) {
        ok = false;
        result.fail("chunk " + std::to_string(c) + ": " + why);
      }
    };
    const util::Status invariants = engine.check_invariants();
    check(invariants.ok(),
          invariants.ok() ? "" : "invariants: " + invariants.error().message);
    const wrtring::EngineStats& s = engine.stats();
    check(s.data_transmissions == frames_accounted(engine),
          "frame conservation: transmissions " +
              std::to_string(s.data_transmissions) + " != accounted " +
              std::to_string(frames_accounted(engine)));
    if (spec.clean) {
      check(s.cdma_collisions == 0, "CDMA collisions on a clean ring");
      check(s.header_decode_failures == 0,
            "header decode failures on a clean ring");
      check(s.sat_rotation_slots.max() < static_cast<double>(bound),
            "SAT rotation " + std::to_string(s.sat_rotation_slots.max()) +
                " slots >= Theorem-1 bound " + std::to_string(bound));
    }
  }
  result.station_slots = station_slots;

  const wrtring::EngineStats& s = engine.stats();
  const double tx = static_cast<double>(s.data_transmissions);
  const double delivered = static_cast<double>(s.sink.total_delivered());
  result.outputs.set("delivered_frac", tx > 0.0 ? delivered / tx : 0.0,
                     "ratio");
  result.outputs.set(
      "rt_delay_p99_slots",
      s.sink.by_class(TrafficClass::kRealTime).delay_slots.quantile(0.99),
      "slots");
  result.outputs.set("rt_miss_frac", s.sink.rt_miss_ratio(), "ratio");
  result.outputs.set("ring_up_frac",
                     static_cast<double>(up_slots) /
                         static_cast<double>(std::max<std::uint64_t>(slots, 1)),
                     "ratio");
  result.outputs.set("sat_rotation_over_bound",
                     s.sat_rotation_slots.max() / static_cast<double>(bound),
                     "ratio");
  result.digest = ring_digest(engine, up_slots);

  if (!traced) return;
  Metrics& layers = result.layers;
  const double kslots = static_cast<double>(slots) / 1e3;
  layers.set("wrtring.step_ns_p50", step_ns.quantile(0.50), "ns");
  layers.set("wrtring.step_ns_p99", step_ns.quantile(0.99), "ns");
  std::int64_t step_total_ns = 0;
  for (std::size_t p = 0; p < kPhases; ++p) {
    layers.set(std::string("wrtring.slots.") + kPhaseNames[p],
               static_cast<double>(phase_slots[p]), "count");
    layers.set(std::string("wrtring.busy_ms.") + kPhaseNames[p],
               static_cast<double>(phase_ns[p]) / 1e6, "ms");
    step_total_ns += phase_ns[p];
  }
  layers.set("wrtring.rebuild_host_share",
             step_total_ns > 0 ? static_cast<double>(phase_ns[kRebuilding]) /
                                     static_cast<double>(step_total_ns)
                               : 0.0,
             "ratio");
  WorkCounts work;
  work.add(s);
  work.report(layers, static_cast<double>(slots));
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  layers.set("wrtring.membership_calls", static_cast<double>(call_us.size()),
             "count");
  layers.set("wrtring.membership_call_us", mean(call_us), "us");
  layers.set("wrtring.membership_settle_ms", mean(settle_ms), "ms");
  layers.set("ring.reform_probes", static_cast<double>(probe_ms.size()),
             "count");
  layers.set("ring.reform_probe_ms", mean(probe_ms), "ms");
  layers.set("ring.reform_probe_ok",
             probe_ms.empty() ? 0.0
                              : static_cast<double>(probe_ok) /
                                    static_cast<double>(probe_ms.size()),
             "ratio");
  layers.set("mem.growth_mb_per_kslot", (rss_mb() - setup_rss_mb) / kslots,
             "MB/kslot");
}

/// Setup-layer probes of the traced run: ring build and code assignment
/// called directly on the workload's topology, and one CDMA channel slot.
void probe_setup_layers(const RingSetup& setup, Metrics& layers) {
  const phy::Topology& topology = *setup.topology;
  std::int64_t t0 = now_ns();
  (void)ring::build_ring_over(topology, ring::largest_component(topology));
  layers.set("ring.build_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms");
  t0 = now_ns();
  (void)cdma::assign_greedy_two_hop(topology);
  layers.set("cdma.assign_ms", static_cast<double>(now_ns() - t0) / 1e6,
             "ms");
  layers.set("cdma.slot_us", cdma_slot_us(topology, *setup.engine, 256), "us");
}

traffic::FlowSpec flow(FlowId id, NodeId src, NodeId dst, TrafficClass cls,
                       traffic::ArrivalKind kind) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.cls = cls;
  spec.kind = kind;
  return spec;
}

/// Times the setup phases (spans in the traced run) and returns setup_s.
template <typename Topo, typename Init, typename Attach>
double timed_setup(Tracer& tracer, Metrics& layers, Topo make_topology,
                   Init init, Attach attach) {
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope span(tracer, "setup.topology");
    make_topology();
  }
  const std::int64_t t1 = now_ns();
  {
    Tracer::Scope span(tracer, "setup.init");
    init();
  }
  const std::int64_t t2 = now_ns();
  {
    Tracer::Scope span(tracer, "setup.attach");
    attach();
  }
  const std::int64_t t3 = now_ns();
  if (tracer.enabled()) {
    layers.set("phy.topology_ms", static_cast<double>(t1 - t0) / 1e6, "ms");
    layers.set("wrtring.init_ms", static_cast<double>(t2 - t1) / 1e6, "ms");
    layers.set("traffic.attach_ms", static_cast<double>(t3 - t2) / 1e6, "ms");
  }
  return static_cast<double>(t3 - t0) / 1e9;
}

/// Common tail: traced setup probes, the measured phase, memory.
void run_ring(const RunContext& context, const RingSpec& spec,
              RingSetup& setup, RepResult& result) {
  const double setup_rss = rss_mb();
  if (context.traced()) {
    result.layers.set("mem.setup_mb", setup_rss, "MB");
    probe_setup_layers(setup, result.layers);
  }
  drive_ring(context, spec, setup, setup_rss, result);
}

void init_or_fail(wrtring::Engine& engine, RepResult& result) {
  const util::Status status = engine.init();
  if (!status.ok()) result.fail("init: " + status.error().message);
}

}  // namespace

// ring_clean: N=128 on bench::ring_room, default Config; RT CBR on a
// quarter of the stations, BE Poisson on a quarter, saturated BE on a
// quarter, and N/4 voice calls with a 150-slot playout deadline.  The
// calls (who talks to whom, and their talk-spurt traces) are part of the
// workload and the same on every seed: they set the per-station quotas
// and so the delay bound.  The seed drives the Poisson arrivals.
RepResult run_ring_clean(const RunContext& context) {
  constexpr std::size_t kN = 128;
  constexpr std::uint64_t kVoiceFleetSeed = 23;
  const RingSpec spec{1024, 128, true};
  RepResult result;
  RingSetup setup;
  result.setup_s = timed_setup(
      *context.tracer, result.layers,
      [&] {
        setup.topology =
            std::make_unique<phy::Topology>(bench::ring_room(kN));
      },
      [&] {
        setup.engine = std::make_unique<wrtring::Engine>(
            setup.topology.get(), wrtring::Config{}, context.seed);
        init_or_fail(*setup.engine, result);
      },
      [&] {
        wrtring::Engine& engine = *setup.engine;
        for (NodeId n = 0; n < kN; ++n) {
          const auto dst = static_cast<NodeId>((n + kN / 2) % kN);
          const auto id = static_cast<FlowId>(n);
          if (n < kN / 4) {
            auto spec_rt = flow(id, n, dst, TrafficClass::kRealTime,
                                traffic::ArrivalKind::kCbr);
            spec_rt.period_slots = 400.0;
            spec_rt.start_slot = static_cast<std::int64_t>(n * 7 % 400);
            engine.add_source(spec_rt);
          } else if (n < kN / 2) {
            auto spec_be = flow(id, n, dst, TrafficClass::kBestEffort,
                                traffic::ArrivalKind::kPoisson);
            spec_be.rate_per_slot = 0.01;
            engine.add_source(spec_be);
          } else if (n < 3 * kN / 4) {
            engine.add_saturated_source(
                flow(id, n, dst, TrafficClass::kBestEffort,
                     traffic::ArrivalKind::kCbr),
                4);
          }
        }
        app::VoiceCallParams voice;
        voice.deadline_slots = 150;
        setup.fleet = std::make_unique<app::VoiceFleet>(
            kN / 4, kN, slots_to_ticks(spec.chunk_slots * spec.chunks),
            kVoiceFleetSeed, voice);
        setup.fleet->attach(engine);
        // A call offers one frame per packet_period_slots during a talk
        // spurt; the default l=1 per rotation cannot carry that, so each
        // caller's real-time quota is sized to the rotation time (~2N
        // slots) it must cover.
        std::vector<std::uint32_t> calls_at(kN, 0);
        for (const app::VoiceCall& call : setup.fleet->calls()) {
          ++calls_at[call.src];
        }
        const auto per_call = static_cast<std::uint32_t>(
            2 * kN / static_cast<std::size_t>(voice.voice.packet_period_slots));
        for (NodeId n = 0; n < kN; ++n) {
          if (calls_at[n] > 0) {
            engine.set_station_quota(n, {1 + per_call * calls_at[n], 1});
          }
        }
      });
  if (result.failed_chunks > 0) return result;
  run_ring(context, spec, setup, result);

  const std::int64_t t0 = now_ns();
  std::vector<app::CallScore> scores;
  {
    Tracer::Scope span(*context.tracer, "app.score");
    scores = app::score_fleet(*setup.fleet, setup.engine->stats().sink);
  }
  if (context.traced()) {
    result.layers.set("app.score_ms",
                      static_cast<double>(now_ns() - t0) / 1e6, "ms");
  }
  result.outputs.set(
      "voice_ok_frac",
      scores.empty()
          ? 0.0
          : static_cast<double>(app::compliant_calls(
                scores, setup.fleet->params().mos_threshold)) /
                static_cast<double>(scores.size()),
      "ratio");
  return result;
}

namespace {

/// The chaos soak's ambient channel (tools/wrt_chaos): mild bursty data
/// loss, a little iid SAT and control loss.
fault::ChannelConfig churn_channel(std::uint64_t seed) {
  util::RngStream rng(seed, 0xC0FFEEu);
  fault::ChannelConfig channel;
  channel.data = fault::GeParams::bursty(
      0.005 + 0.02 * rng.uniform(), 1.0 + std::floor(rng.uniform() * 16.0));
  channel.sat = fault::GeParams::iid(0.002 + 0.006 * rng.uniform());
  channel.control = fault::GeParams::iid(0.01 + 0.05 * rng.uniform());
  return channel;
}

constexpr std::size_t kChurnN = 32;
constexpr std::size_t kChurnParked = 4;
constexpr std::int64_t kChurnChunkSlots = 128;
constexpr std::int64_t kChurnChunks = 32;
constexpr std::int64_t kChurnHorizon = kChurnChunkSlots * kChurnChunks;
/// The partition every schedule holds: stations 0..9 cut off from 10..31
/// (the 10|22 re-formation repro, README.md "Known defect") for 64 slots,
/// before the random plan's first event (at horizon/20).  The workload
/// asks for the re-formation it calls for once, at the partition; the
/// partition heals before the engine's own recovery reaches a
/// re-formation attempt (SAT timeout, then rebuild_base_slots +
/// rebuild_per_station_slots per station).  The random plan's own
/// partition, if any, is dropped: its cut and length are random, and the
/// engine's attempts inside it cost ~0.3 s per 8 slots, which made a
/// repetition cost anything from milliseconds to a minute.
constexpr std::size_t kPartitionCut = 10;
constexpr std::int64_t kPartitionSlot = 128;
constexpr std::int64_t kPartitionSlots = 64;

fault::FaultPlan churn_plan(std::uint64_t seed,
                            const std::vector<NodeId>& parked) {
  fault::FaultPlan::RandomOptions options;
  options.n_stations = kChurnN;
  options.parked = parked;
  options.horizon_slots = kChurnHorizon;
  options.events = 8;
  options.min_alive = kChurnN - 1;  // at most one crash or leave
  options.flap_events = 1;
  const fault::FaultPlan random = fault::FaultPlan::random(seed, options);
  fault::FaultPlan plan;
  for (const fault::FaultEvent& event : random.events) {
    if (event.kind != fault::FaultKind::kPartition &&
        event.kind != fault::FaultKind::kHealPartition) {
      plan.add(event);
    }
  }
  fault::FaultEvent cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.slot = kPartitionSlot;
  cut.groups.resize(2);
  for (NodeId n = 0; n < kChurnN; ++n) {
    cut.groups[n < kPartitionCut ? 0 : 1].push_back(n);
  }
  fault::FaultEvent heal;
  heal.kind = fault::FaultKind::kHealPartition;
  heal.slot = kPartitionSlot + kPartitionSlots;
  plan.add(std::move(cut));
  plan.add(std::move(heal));
  return plan;
}

}  // namespace

// ring_churn: the membership-change side of the engine, configured like
// tools/wrt_chaos (rotating RAP, auto_rejoin, guard + WTR, bursty channel)
// and driven by a FaultPlan::random schedule that always holds a partition.
RepResult run_ring_churn(const RunContext& context) {
  const RingSpec spec{kChurnChunkSlots, kChurnChunks, false};
  RepResult result;
  RingSetup setup;
  std::vector<NodeId> parked;
  result.setup_s = timed_setup(
      *context.tracer, result.layers,
      [&] {
        setup.topology =
            std::make_unique<phy::Topology>(bench::ring_room(kChurnN));
        for (std::size_t i = 0; i < kChurnParked; ++i) {
          const phy::Vec2 base = setup.topology->position(
              static_cast<NodeId>((i * 3) % kChurnN));
          const NodeId id = setup.topology->add_node(base * 1.08);
          setup.topology->set_alive(id, false);  // until the plan joins it
          parked.push_back(id);
        }
      },
      [&] {
        wrtring::Config config;
        config.rap_policy = wrtring::RapPolicy::kRotating;
        config.auto_rejoin = true;
        config.guard_slots = 32;
        config.wtr_slots = 128;
        config.channel = churn_channel(context.seed);
        setup.engine = std::make_unique<wrtring::Engine>(
            setup.topology.get(), config, context.seed);
        init_or_fail(*setup.engine, result);
      },
      [&] {
        for (NodeId n = 0; n < kChurnN; ++n) {
          auto rt = flow(static_cast<FlowId>(n), n,
                         static_cast<NodeId>((n + kChurnN / 2) % kChurnN),
                         TrafficClass::kRealTime, traffic::ArrivalKind::kCbr);
          rt.period_slots = 40.0;
          setup.engine->add_source(rt);
        }
        setup.events = expand(churn_plan(context.seed, parked));
      });
  if (result.failed_chunks > 0) return result;
  run_ring(context, spec, setup, result);
  return result;
}

// ring_fidelity: N=32 with cdma_fidelity on — the only workload that runs
// the O(N^2) cdma::Channel resolution and the header codec every slot.
RepResult run_ring_fidelity(const RunContext& context) {
  constexpr std::size_t kN = 32;
  const RingSpec spec{1024, 64, true};
  RepResult result;
  RingSetup setup;
  result.setup_s = timed_setup(
      *context.tracer, result.layers,
      [&] {
        setup.topology =
            std::make_unique<phy::Topology>(bench::ring_room(kN));
      },
      [&] {
        wrtring::Config config;
        config.cdma_fidelity = true;
        setup.engine = std::make_unique<wrtring::Engine>(
            setup.topology.get(), config, context.seed);
        init_or_fail(*setup.engine, result);
      },
      [&] {
        for (NodeId n = 0; n < kN; ++n) {
          setup.engine->add_saturated_source(
              flow(static_cast<FlowId>(n), n,
                   static_cast<NodeId>((n + 1) % kN),
                   TrafficClass::kBestEffort, traffic::ArrivalKind::kCbr),
              4);
          auto rt = flow(static_cast<FlowId>(kN + n), n,
                         static_cast<NodeId>((n + kN / 2) % kN),
                         TrafficClass::kRealTime, traffic::ArrivalKind::kCbr);
          rt.period_slots = 128.0;
          rt.start_slot = static_cast<std::int64_t>(n * 4);
          setup.engine->add_source(rt);
        }
      });
  if (result.failed_chunks > 0) return result;
  run_ring(context, spec, setup, result);
  return result;
}

}  // namespace perfbench
