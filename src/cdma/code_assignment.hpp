// CDMA code assignment.
//
// Section 2.1: "a unique code [is assigned] to each station, such that two
// stations can communicate only using the assigned code... the assignment of
// these codes goes beyond the scope of this paper" (it cites Hu's distributed
// code assignment, ref [19]).  We build the substrate the paper assumes:
//
//  * For receiver-based CDMA to be collision-free, two stations that share a
//    potential receiver must not share a code — i.e. codes must be distinct
//    within every 2-hop neighbourhood (the classic L(1,1) / distance-2
//    colouring condition from Hu '93).
//  * assign_greedy_two_hop: centralised greedy colouring (what "codes are
//    given when the virtual ring is created" means operationally).
//  * assign_distributed: a simulated message-passing variant in the spirit
//    of [19]: nodes repeatedly pick the smallest code unused within two hops
//    until stable; the returned round count feeds the setup-cost accounting.
//
// Code 0 is reserved for the common/broadcast channel (Section 2.1).
#pragma once

#include <vector>

#include "phy/topology.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::cdma {

/// Per-node receive codes; index = NodeId.  All codes are >= 1
/// (kBroadcastCode = 0 is reserved).
using CodeMap = std::vector<CdmaCode>;

/// The smallest code >= 1 that no node within two hops of `node` holds in
/// `codes` (ids beyond `codes` and kInvalidCode entries hold nothing).  The
/// one colouring rule behind both assignments below and a joiner's code.
[[nodiscard]] CdmaCode smallest_free_code(const phy::Topology& topology,
                                          const CodeMap& codes, NodeId node);

/// Greedy distance-2 colouring in node-id order.
[[nodiscard]] CodeMap assign_greedy_two_hop(const phy::Topology& topology);

/// Simulated distributed assignment: random node order per round, each node
/// re-picks the smallest code not used in its 2-hop neighbourhood, until a
/// round changes nothing.  Writes the number of rounds to `rounds_out` when
/// non-null.
[[nodiscard]] CodeMap assign_distributed(const phy::Topology& topology,
                                         std::uint64_t seed,
                                         std::size_t* rounds_out = nullptr);

/// Verifies the distance-2 condition: no two distinct alive nodes within two
/// hops share a code, and no node uses the broadcast code.
[[nodiscard]] bool verify_two_hop_distinct(const phy::Topology& topology,
                                           const CodeMap& codes);

/// Number of distinct codes used (the "spreading-code budget").
[[nodiscard]] std::size_t codes_used(const CodeMap& codes);

/// Collects the 2-hop neighbourhood of `node` (excluding `node` itself).
[[nodiscard]] std::vector<NodeId> two_hop_neighbors(
    const phy::Topology& topology, NodeId node);

}  // namespace wrt::cdma
