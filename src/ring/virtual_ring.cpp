#include "ring/virtual_ring.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace wrt::ring {

VirtualRing::VirtualRing(std::vector<NodeId> order) : order_(std::move(order)) {
  std::set<NodeId> unique(order_.begin(), order_.end());
  if (unique.size() != order_.size()) {
    throw std::invalid_argument("VirtualRing: duplicate station in order");
  }
}

NodeId VirtualRing::station_at(std::size_t pos) const {
  if (order_.empty()) throw std::out_of_range("VirtualRing: empty");
  return order_[pos % order_.size()];
}

std::size_t VirtualRing::position_of(NodeId node) const {
  const auto position = find_position(node);
  if (!position.has_value()) {
    throw std::out_of_range("VirtualRing: node not in ring");
  }
  return *position;
}

std::optional<std::size_t> VirtualRing::find_position(
    NodeId node) const noexcept {
  const auto it = std::find(order_.begin(), order_.end(), node);
  if (it == order_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - order_.begin());
}

bool VirtualRing::contains(NodeId node) const noexcept {
  return std::find(order_.begin(), order_.end(), node) != order_.end();
}

NodeId VirtualRing::successor(NodeId node) const {
  return station_at(position_of(node) + 1);
}

NodeId VirtualRing::predecessor(NodeId node) const {
  return station_at(position_of(node) + order_.size() - 1);
}

void VirtualRing::insert_after(NodeId existing, NodeId newcomer) {
  if (contains(newcomer)) {
    throw std::invalid_argument("VirtualRing: newcomer already in ring");
  }
  const std::size_t pos = position_of(existing);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                newcomer);
}

void VirtualRing::remove(NodeId node) {
  const std::size_t pos = position_of(node);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
}

bool VirtualRing::valid_over(const phy::Topology& topology) const {
  if (order_.size() < 3) return false;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const NodeId a = order_[i];
    const NodeId b = order_[(i + 1) % order_.size()];
    if (!topology.reachable(a, b)) return false;
  }
  return true;
}

namespace {

/// Backtracking Hamiltonian-cycle search.  Nodes are extended in
/// fewest-remaining-neighbours order (Warnsdorff-style) which resolves most
/// unit-disk instances without exhausting the budget.
class HamiltonianSearch {
 public:
  HamiltonianSearch(const phy::Topology& topology,
                    std::vector<NodeId> alive_nodes, std::size_t budget)
      : topology_(topology), nodes_(std::move(alive_nodes)), budget_(budget) {}

  [[nodiscard]] bool run(std::vector<NodeId>& cycle_out) {
    if (nodes_.size() < 3) return false;
    is_member_.assign(topology_.node_count(), false);
    for (const NodeId n : nodes_) is_member_[n] = true;
    path_.clear();
    in_path_.assign(topology_.node_count(), false);
    path_.push_back(nodes_.front());
    in_path_[nodes_.front()] = true;
    if (!extend()) return false;
    cycle_out = path_;
    return true;
  }

 private:
  [[nodiscard]] bool extend() {
    if (budget_ == 0) return false;
    --budget_;
    if (path_.size() == nodes_.size()) {
      return topology_.reachable(path_.back(), path_.front());
    }
    const NodeId tail = path_.back();
    std::vector<NodeId> candidates;
    for (const NodeId n : topology_.neighbors(tail)) {
      if (!in_path_[n] && is_member_[n]) candidates.push_back(n);
    }
    // Fewest-onward-moves first.
    std::sort(candidates.begin(), candidates.end(),
              [this](NodeId a, NodeId b) {
                return free_degree(a) < free_degree(b);
              });
    for (const NodeId n : candidates) {
      path_.push_back(n);
      in_path_[n] = true;
      if (extend()) return true;
      in_path_[n] = false;
      path_.pop_back();
    }
    return false;
  }

  [[nodiscard]] std::size_t free_degree(NodeId n) const {
    std::size_t degree = 0;
    for (const NodeId m : topology_.neighbors(n)) {
      if (!in_path_[m]) ++degree;
    }
    return degree;
  }

  const phy::Topology& topology_;
  std::vector<NodeId> nodes_;
  std::size_t budget_;
  std::vector<bool> is_member_;
  std::vector<NodeId> path_;
  std::vector<bool> in_path_;
};

}  // namespace

util::Result<VirtualRing> build_ring(const phy::Topology& topology,
                                     std::size_t backtrack_budget) {
  std::vector<NodeId> alive;
  for (NodeId i = 0; i < topology.node_count(); ++i) {
    if (topology.alive(i)) alive.push_back(i);
  }
  return build_ring_over(topology, std::move(alive), backtrack_budget);
}

std::vector<NodeId> largest_component(const phy::Topology& topology) {
  const auto& groups = topology.components();
  // max_element keeps the first of equals: the tie goes to the group with
  // the smallest member.
  const auto largest = std::max_element(
      groups.begin(), groups.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  return largest == groups.end() ? std::vector<NodeId>{} : *largest;
}

util::Result<VirtualRing> build_ring_over(const phy::Topology& topology,
                                          std::vector<NodeId> members,
                                          std::size_t backtrack_budget) {
  const std::vector<NodeId>& alive = members;
  for (const NodeId n : alive) {
    if (!topology.alive(n)) {
      return util::Error::invalid_argument("dead station in member set");
    }
  }
  if (alive.size() < 3) {
    return util::Error::no_ring_possible("need at least 3 alive stations");
  }

  // Heuristic 1: angular order around the centroid.  Indoor placements are
  // blob-shaped, so this usually yields a feasible cycle immediately.
  phy::Vec2 centroid{0.0, 0.0};
  for (const NodeId n : alive) centroid = centroid + topology.position(n);
  centroid = centroid * (1.0 / static_cast<double>(alive.size()));
  std::vector<NodeId> angular = alive;
  std::sort(angular.begin(), angular.end(), [&](NodeId a, NodeId b) {
    const phy::Vec2 pa = topology.position(a) - centroid;
    const phy::Vec2 pb = topology.position(b) - centroid;
    return std::atan2(pa.y, pa.x) < std::atan2(pb.y, pb.x);
  });
  VirtualRing angular_ring(angular);
  if (angular_ring.valid_over(topology)) return angular_ring;

  // Heuristic 2: bounded backtracking Hamiltonian-cycle search.
  HamiltonianSearch search(topology, alive, backtrack_budget);
  std::vector<NodeId> cycle;
  if (search.run(cycle)) return VirtualRing(cycle);

  return util::Error::no_ring_possible(
      "no Hamiltonian cycle found within the search budget");
}

bool can_insert(const VirtualRing& ring, const phy::Topology& topology,
                NodeId newcomer, NodeId* ingress_out) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeId a = ring.station_at(i);
    const NodeId b = ring.station_at(i + 1);
    if (topology.reachable(newcomer, a) && topology.reachable(newcomer, b)) {
      if (ingress_out != nullptr) *ingress_out = a;
      return true;
    }
  }
  return false;
}

}  // namespace wrt::ring
