#include "phy/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace wrt::phy {
namespace {

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

Topology::Topology(std::vector<Vec2> positions, RadioParams radio,
                   std::uint64_t seed)
    : positions_(std::move(positions)),
      alive_(positions_.size(), true),
      radio_(radio),
      seed_(seed) {}

Vec2 Topology::position(NodeId node) const {
  return positions_.at(node);
}

void Topology::set_position(NodeId node, Vec2 pos) {
  positions_.at(node) = pos;
  ++version_;
}

NodeId Topology::add_node(Vec2 pos) {
  positions_.push_back(pos);
  alive_.push_back(true);
  // A node added under a partition joins the implicit group 0.
  if (partitioned()) partition_group_.push_back(0);
  ++version_;
  return static_cast<NodeId>(positions_.size() - 1);
}

void Topology::set_alive(NodeId node, bool is_alive) {
  alive_.at(node) = is_alive;
  ++version_;
}

bool Topology::alive(NodeId node) const { return alive_.at(node); }

void Topology::fail_link(NodeId a, NodeId b) {
  failed_links_.insert(ordered(a, b));
  ++version_;
}

void Topology::restore_link(NodeId a, NodeId b) {
  failed_links_.erase(ordered(a, b));
  ++version_;
}

void Topology::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  // Group 0 is the implicit "everyone else"; named groups start at 1.
  partition_group_.assign(positions_.size(), 0);
  std::int32_t id = 1;
  for (const auto& group : groups) {
    for (const NodeId node : group) {
      if (node < partition_group_.size()) partition_group_[node] = id;
    }
    ++id;
  }
  ++version_;
}

double Topology::effective_range(NodeId a, NodeId b) const {
  if (radio_.shadowing_sigma <= 0.0) return radio_.range;
  // Deterministic per-link shadowing: hash the link into a stream so the
  // same link always sees the same fade.
  const auto [lo, hi] = ordered(a, b);
  util::RngStream stream(seed_,
                         (static_cast<std::uint64_t>(lo) << 32) | hi);
  const double shrink = std::abs(stream.normal(0.0, radio_.shadowing_sigma));
  return std::max(0.0, radio_.range - shrink);
}

bool Topology::reachable(NodeId a, NodeId b) const {
  if (a == b) return false;
  if (a >= positions_.size() || b >= positions_.size()) return false;
  if (!alive_[a] || !alive_[b]) return false;
  if (failed_links_.contains(ordered(a, b))) return false;
  if (!partition_group_.empty() &&
      partition_group_[a] != partition_group_[b]) {
    return false;
  }
  return distance(positions_[a], positions_[b]) <= effective_range(a, b);
}

void Topology::rebuild_adjacency() const {
  const std::size_t n = positions_.size();
  adjacency_.resize(n);
  for (auto& list : adjacency_) list.clear();
  // reachable() is symmetric, so one i < j pass fills both ends; pushing in
  // this order keeps every list ascending.
  for (NodeId a = 0; a < n; ++a) {
    if (!alive_[a]) continue;
    for (NodeId b = a + 1; b < n; ++b) {
      if (reachable(a, b)) {
        adjacency_[a].push_back(b);
        adjacency_[b].push_back(a);
      }
    }
  }
  // Flooding from each unseen alive node in id order yields the groups
  // ordered by their smallest member.
  components_.clear();
  std::vector<bool> seen(n, false);
  for (NodeId start = 0; start < n; ++start) {
    if (seen[start] || !alive_[start]) continue;
    std::vector<NodeId> group{start};
    seen[start] = true;
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (const NodeId v : adjacency_[group[i]]) {
        if (!seen[v]) {
          seen[v] = true;
          group.push_back(v);
        }
      }
    }
    std::sort(group.begin(), group.end());
    components_.push_back(std::move(group));
  }
  adjacency_version_ = version_;
}

const std::vector<std::vector<NodeId>>& Topology::components() const {
  if (adjacency_version_ != version_) rebuild_adjacency();
  return components_;
}

bool Topology::hidden_pair(NodeId a, NodeId c, NodeId receiver) const {
  return reachable(a, receiver) && reachable(c, receiver) && !reachable(a, c);
}

bool Topology::connected() const { return components().size() <= 1; }

bool Topology::min_degree_at_least(std::size_t min_degree) const {
  for (NodeId i = 0; i < positions_.size(); ++i) {
    if (!alive_[i]) continue;
    if (neighbors(i).size() < min_degree) return false;
  }
  return true;
}

namespace placement {

std::vector<Vec2> circle(std::size_t n, double radius, Vec2 center) {
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    positions.push_back(
        {center.x + radius * std::cos(angle), center.y + radius * std::sin(angle)});
  }
  return positions;
}

util::Result<std::vector<Vec2>> random_connected(std::size_t n, Rect area,
                                                 double range,
                                                 std::uint64_t seed,
                                                 std::size_t max_attempts) {
  util::RngStream rng(seed, 0x91ACE);
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<Vec2> positions;
    positions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back({rng.uniform(area.lo.x, area.hi.x),
                           rng.uniform(area.lo.y, area.hi.y)});
    }
    Topology probe(positions, RadioParams{range, 0.0});
    if (probe.connected() && probe.min_degree_at_least(2)) return positions;
  }
  return util::Error::no_ring_possible(
      "random_connected: could not draw a connected min-degree-2 placement");
}

std::vector<Vec2> grid(std::size_t rows, std::size_t cols, double spacing,
                       Vec2 origin) {
  std::vector<Vec2> positions;
  positions.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      positions.push_back({origin.x + spacing * static_cast<double>(c),
                           origin.y + spacing * static_cast<double>(r)});
    }
  }
  return positions;
}

std::vector<Vec2> chain(std::size_t n, double spacing, Vec2 origin) {
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({origin.x + spacing * static_cast<double>(i), origin.y});
  }
  return positions;
}

}  // namespace placement

}  // namespace wrt::phy
