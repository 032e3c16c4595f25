#include "wrtring/multiring.hpp"

#include <algorithm>

#include "ring/virtual_ring.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace wrt::wrtring {

namespace {

/// Per-ring seed: the coordinator seed mixed (splitmix64) with the ring's
/// smallest member id.  Anchoring on a stable property of the membership —
/// instead of the old `seed_ + engines_.size() * 7919`, which depended on
/// component discovery order — keeps each ring's RNG stream identical when
/// unrelated components appear, vanish, or are enumerated differently.
/// Disjoint memberships have distinct minima, so streams never collide.
[[nodiscard]] std::uint64_t ring_seed(std::uint64_t coordinator_seed,
                                      NodeId anchor) {
  std::uint64_t state =
      coordinator_seed ^ (0x9e3779b97f4a7c15ULL * (anchor + 1ULL));
  return util::splitmix64(state);
}

}  // namespace

MultiRingCoordinator::MultiRingCoordinator(phy::Topology* topology,
                                           Config config, std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {}

void MultiRingCoordinator::form_rings_over(std::vector<NodeId> component) {
  std::vector<NodeId> group = std::move(component);
  std::vector<NodeId> peeled;
  std::vector<bool> in_group(topology_->node_count(), false);
  for (const NodeId member : group) in_group[member] = true;
  while (group.size() >= 3) {
    if (ring::build_ring_over(*topology_, group).ok()) {
      Config ring_config = config_;
      ring_config.members = group;
      const NodeId anchor = *std::min_element(group.begin(), group.end());
      auto engine = std::make_unique<Engine>(topology_,
                                             std::move(ring_config),
                                             ring_seed(seed_, anchor));
      if (engine->init().ok()) {
        const std::size_t index = engines_.size();
        for (const NodeId member : group) ring_index_[member] = index;
        engine->set_membership_callback(
            [this, index](NodeId node, bool joined) {
              on_membership_change(index, node, joined);
            });
        engines_.push_back(std::move(engine));
        if (!peeled.empty()) form_rings_over(std::move(peeled));
        return;
      }
    }
    // Peel the station with the fewest in-group neighbours — the usual
    // Hamiltonicity blocker — and retry with the rest.
    std::size_t worst_index = 0;
    std::size_t worst_degree = ~std::size_t{0};
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::size_t degree = 0;
      for (const NodeId neighbor : topology_->neighbors(group[i])) {
        if (in_group[neighbor]) ++degree;
      }
      if (degree < worst_degree) {
        worst_degree = degree;
        worst_index = i;
      }
    }
    peeled.push_back(group[worst_index]);
    in_group[group[worst_index]] = false;
    group.erase(group.begin() + static_cast<std::ptrdiff_t>(worst_index));
  }
  unserved_.insert(unserved_.end(), group.begin(), group.end());
  unserved_.insert(unserved_.end(), peeled.begin(), peeled.end());
}

util::Status MultiRingCoordinator::init() {
  // Copied: the ring engines built below hold the topology mutably.
  const std::vector<std::vector<NodeId>> components = topology_->components();
  for (const std::vector<NodeId>& component : components) {
    form_rings_over(component);
  }
  std::sort(unserved_.begin(), unserved_.end());
  util::log(util::LogLevel::kInfo,
            "MultiRing: " + std::to_string(engines_.size()) + " ring(s), " +
                std::to_string(unserved_.size()) + " unserved station(s)");
  if (engines_.empty()) {
    return util::Error::no_ring_possible("no component can host a ring");
  }
  return util::Status::success();
}

void MultiRingCoordinator::step() {
  for (auto& engine : engines_) engine->step();
}

void MultiRingCoordinator::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

void MultiRingCoordinator::on_membership_change(std::size_t index,
                                                NodeId node, bool joined) {
  if (joined) {
    ring_index_[node] = index;
    const auto it =
        std::lower_bound(unserved_.begin(), unserved_.end(), node);
    if (it != unserved_.end() && *it == node) unserved_.erase(it);
  } else {
    // Only clear the entry if it still points at this ring: a rebuild of
    // ring A must not erase a node that has meanwhile joined ring B.
    const auto entry = ring_index_.find(node);
    if (entry != ring_index_.end() && entry->second == index) {
      ring_index_.erase(node);
      // unserved() means "alive but in no ring": dead stations drop out of
      // the bookkeeping entirely (coverage() ignores them too).
      if (topology_->alive(node)) {
        const auto it =
            std::lower_bound(unserved_.begin(), unserved_.end(), node);
        if (it == unserved_.end() || *it != node) unserved_.insert(it, node);
      }
    }
  }
}

Engine* MultiRingCoordinator::ring_of(NodeId node) {
  const auto entry = ring_index_.find(node);
  return entry == ring_index_.end() ? nullptr
                                    : engines_[entry->second].get();
}

double MultiRingCoordinator::coverage() const {
  std::size_t alive = 0;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) ++alive;
  }
  if (alive == 0) return 0.0;
  std::size_t served = 0;
  for (const auto& engine : engines_) served += engine->virtual_ring().size();
  return static_cast<double>(served) / static_cast<double>(alive);
}

std::uint64_t MultiRingCoordinator::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->stats().sink.total_delivered();
  }
  return total;
}

}  // namespace wrt::wrtring
