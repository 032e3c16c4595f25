// One arrival schedule for a MAC engine's rate-limited and trace sources.
//
// The paper's traffic is sparse against the slot: CBR periods of many
// slots, Poisson best effort, talk-spurt voice.  Calling every source's
// poll() in every slot would cost one out-of-line call per source per slot
// while, on average, fewer than one of them fires.  Both source types keep
// one contract instead: poll(now) with now < next_arrival() does nothing.
// So the schedule keeps each source's next arrival tick in a flat `due`
// column and the earliest of them in one word: a slot with nothing due
// costs one comparison, and a slot with something due polls only the
// sources whose tick has come.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::traffic {

/// Owns the TrafficSources and TraceSources of one engine, each tagged with
/// the station it feeds.  Saturated sources are not here: they refill on
/// queue depth, not on time.
class ArrivalSchedule {
 public:
  void add(TrafficSource source, NodeId station) {
    next_due_ = std::min(next_due_, rates_.add(std::move(source), station));
  }
  void add(TraceSource source, NodeId station) {
    next_due_ = std::min(next_due_, traces_.add(std::move(source), station));
  }

  /// Polls every source due at `now`, rate sources in the order added and
  /// then traces in the order added, and calls
  /// `on_arrivals(station, scratch)` for each one that produced packets.
  /// `scratch` is cleared before each source; `on_arrivals` may move the
  /// packets out but must not add sources.
  template <typename OnArrivals>
  void poll(Tick now, std::vector<Packet>& scratch, OnArrivals&& on_arrivals) {
    if (now < next_due_) return;
    const Tick rates_next = rates_.poll(now, scratch, on_arrivals);
    const Tick traces_next = traces_.poll(now, scratch, on_arrivals);
    next_due_ = std::min(rates_next, traces_next);
  }

  /// Earliest next_arrival() over all sources (kNeverTick when none).
  [[nodiscard]] Tick next_due() const noexcept { return next_due_; }

 private:
  template <typename Source>
  struct Column {
    std::vector<Source> sources;
    std::vector<NodeId> stations;
    std::vector<Tick> due;  ///< sources[i].next_arrival()

    Tick add(Source source, NodeId station) {
      due.push_back(source.next_arrival());
      sources.push_back(std::move(source));
      stations.push_back(station);
      return due.back();
    }

    /// Polls the due sources; returns the column's earliest due tick after.
    template <typename OnArrivals>
    Tick poll(Tick now, std::vector<Packet>& scratch,
              OnArrivals& on_arrivals) {
      Tick next = kNeverTick;
      for (std::size_t i = 0; i < due.size(); ++i) {
        if (due[i] <= now) {
          scratch.clear();
          sources[i].poll(now, scratch);
          due[i] = sources[i].next_arrival();
          if (!scratch.empty()) on_arrivals(stations[i], scratch);
        }
        next = std::min(next, due[i]);
      }
      return next;
    }
  };

  Column<TrafficSource> rates_;
  Column<TraceSource> traces_;
  Tick next_due_ = kNeverTick;
};

}  // namespace wrt::traffic
