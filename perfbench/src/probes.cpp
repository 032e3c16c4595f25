#include "probes.hpp"

#include "cdma/channel.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace wrt;

std::uint64_t frames_accounted(const wrtring::Engine& engine) {
  const wrtring::EngineStats& s = engine.stats();
  return s.sink.total_delivered() + s.frames_lost_link +
         s.frames_lost_rebuild + s.frames_lost_churn +
         s.frames_dropped_stale + engine.frames_in_flight();
}

double cdma_slot_us(const phy::Topology& topology,
                    const wrtring::Engine& engine, int reps) {
  const cdma::CodeMap& codes = engine.codes();
  const ring::VirtualRing& ring = engine.virtual_ring();
  cdma::Channel<std::uint32_t> channel(&topology);
  for (std::size_t p = 0; p < ring.size(); ++p) {
    const NodeId node = ring.station_at(p);
    channel.set_listen_codes(node, {codes[node], kBroadcastCode});
  }
  const std::int64_t start = now_ns();
  for (int r = 0; r < reps; ++r) {
    channel.begin_slot(slots_to_ticks(r));
    for (std::size_t p = 0; p < ring.size(); ++p) {
      const NodeId to = ring.station_at((p + 1) % ring.size());
      channel.transmit(ring.station_at(p), codes[to],
                       static_cast<std::uint32_t>(p));
    }
    (void)channel.end_slot();
  }
  return static_cast<double>(now_ns() - start) / 1e3 / reps;
}

void WorkCounts::add(const wrtring::EngineStats& s) {
  sat_hops += s.sat_hops;
  data_tx += s.data_transmissions;
  transit_fwd += s.transit_forwards;
  delivered += s.sink.total_delivered();
  frames_lost += s.frames_lost_link + s.frames_lost_rebuild +
                 s.frames_lost_churn + s.frames_dropped_stale;
  cut_outs += s.cut_outs;
  rebuilds += s.ring_rebuilds;
  joins += s.joins_completed;
  join_retries += s.join_retries;
  cdma_collisions += s.cdma_collisions;
  header_decode_failures += s.header_decode_failures;
}

void WorkCounts::report(Metrics& layers, double ring_slots) const {
  const double kslots = ring_slots / 1e3;
  const auto per_kslot = [&](const char* name, std::uint64_t count) {
    layers.set(name, static_cast<double>(count) / kslots, "count/kslot");
  };
  per_kslot("wrtring.sat_hops", sat_hops);
  per_kslot("wrtring.data_tx", data_tx);
  per_kslot("wrtring.transit_fwd", transit_fwd);
  per_kslot("wrtring.delivered", delivered);
  per_kslot("wrtring.frames_lost", frames_lost);
  per_kslot("wrtring.cut_outs", cut_outs);
  per_kslot("wrtring.rebuilds", rebuilds);
  per_kslot("wrtring.joins", joins);
  per_kslot("wrtring.join_retries", join_retries);
  const auto tx = static_cast<double>(data_tx);
  const auto got = static_cast<double>(delivered);
  layers.set("wrtring.delivered_per_tx", tx > 0.0 ? got / tx : 0.0, "ratio");
  layers.set("wrtring.hops_per_delivery",
             got > 0.0 ? (tx + static_cast<double>(transit_fwd)) / got : 0.0,
             "ratio");
  layers.set("wrtring.cdma_collisions", static_cast<double>(cdma_collisions),
             "count");
  layers.set("wrtring.header_decode_failures",
             static_cast<double>(header_decode_failures), "count");
}

}  // namespace perfbench
