#include "cdma/code_assignment.hpp"

#include <algorithm>
#include <set>

namespace wrt::cdma {

std::vector<NodeId> two_hop_neighbors(const phy::Topology& topology,
                                      NodeId node) {
  std::vector<NodeId> result;
  for (const NodeId n1 : topology.neighbors(node)) {
    result.push_back(n1);
    for (const NodeId n2 : topology.neighbors(n1)) {
      if (n2 != node) result.push_back(n2);
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

namespace {

/// Codes held within two hops of `node` (not counting its own), sorted.
std::vector<CdmaCode> codes_in_use_near(const phy::Topology& topology,
                                        const CodeMap& codes, NodeId node) {
  std::vector<CdmaCode> used;
  for (const NodeId other : two_hop_neighbors(topology, node)) {
    if (other < codes.size() && codes[other] != kInvalidCode) {
      used.push_back(codes[other]);
    }
  }
  std::sort(used.begin(), used.end());
  return used;
}

/// Smallest code >= 1 absent from the sorted list `used`.
CdmaCode smallest_absent(const std::vector<CdmaCode>& used) {
  CdmaCode code = 1;
  for (const CdmaCode taken : used) {
    if (taken > code) break;    // smallest free code found
    if (taken == code) ++code;  // duplicates just re-test `code`
  }
  return code;
}

}  // namespace

CdmaCode smallest_free_code(const phy::Topology& topology,
                            const CodeMap& codes, NodeId node) {
  return smallest_absent(codes_in_use_near(topology, codes, node));
}

CodeMap assign_greedy_two_hop(const phy::Topology& topology) {
  const auto n = topology.node_count();
  CodeMap codes(n, kInvalidCode);
  for (NodeId node = 0; node < n; ++node) {
    if (topology.alive(node)) {
      codes[node] = smallest_free_code(topology, codes, node);
    }
  }
  return codes;
}

CodeMap assign_distributed(const phy::Topology& topology, std::uint64_t seed,
                           std::size_t* rounds_out) {
  const auto n = topology.node_count();
  // Start from an intentionally conflicting state: everyone picks code 1.
  CodeMap codes(n, kInvalidCode);
  std::vector<NodeId> order;
  for (NodeId node = 0; node < n; ++node) {
    if (topology.alive(node)) {
      codes[node] = 1;
      order.push_back(node);
    }
  }

  util::RngStream rng(seed, 0xC0DE);
  std::size_t rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++rounds;
    rng.shuffle(order);
    for (const NodeId node : order) {
      const std::vector<CdmaCode> used =
          codes_in_use_near(topology, codes, node);
      // A node keeps its code unless a 2-hop neighbour holds the same one.
      if (!std::binary_search(used.begin(), used.end(), codes[node])) continue;
      codes[node] = smallest_absent(used);
      changed = true;
    }
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return codes;
}

bool verify_two_hop_distinct(const phy::Topology& topology,
                             const CodeMap& codes) {
  for (NodeId node = 0; node < topology.node_count(); ++node) {
    if (!topology.alive(node)) continue;
    if (node >= codes.size()) return false;
    if (codes[node] == kBroadcastCode || codes[node] == kInvalidCode) {
      return false;
    }
    for (const NodeId other : two_hop_neighbors(topology, node)) {
      if (!topology.alive(other)) continue;
      if (codes[other] == codes[node]) return false;
    }
  }
  return true;
}

std::size_t codes_used(const CodeMap& codes) {
  std::set<CdmaCode> distinct;
  for (const CdmaCode code : codes) {
    if (code != kInvalidCode) distinct.insert(code);
  }
  return distinct.size();
}

}  // namespace wrt::cdma
