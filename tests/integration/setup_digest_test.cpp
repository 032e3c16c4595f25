// Setup-layer digests: the exact outputs of the CDMA code assignment, the
// ring build and the component search on fixed topologies.  The values were
// recorded from the implementation before adjacency moved into
// phy::Topology; any change in neighbour order, tie-break or colouring rule
// shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/bench_common.hpp"
#include "cdma/code_assignment.hpp"
#include "phy/topology.hpp"
#include "ring/virtual_ring.hpp"

namespace wrt {
namespace {

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void mix_all(const std::vector<T>& values) {
    mix(values.size());
    for (const T value : values) mix(static_cast<std::uint64_t>(value));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct SetupDigests {
  std::uint64_t greedy;
  std::uint64_t distributed;  ///< codes and round count
  std::uint64_t ring;         ///< ring order, or the error code
  std::uint64_t component;
};

SetupDigests digest_setup(const phy::Topology& topology) {
  SetupDigests out{};
  {
    Fnv h;
    h.mix_all(cdma::assign_greedy_two_hop(topology));
    out.greedy = h.value();
  }
  {
    Fnv h;
    std::size_t rounds = 0;
    h.mix_all(cdma::assign_distributed(topology, 17, &rounds));
    h.mix(rounds);
    out.distributed = h.value();
  }
  {
    Fnv h;
    // build_ring on a connected graph; the engine's largest-component
    // fallback otherwise.
    const auto ring =
        topology.connected()
            ? ring::build_ring(topology)
            : ring::build_ring_over(topology, ring::largest_component(topology));
    if (ring.ok()) {
      h.mix_all(ring.value().order());
    } else {
      h.mix(static_cast<std::uint64_t>(ring.error().code));
    }
    out.ring = h.value();
  }
  {
    Fnv h;
    h.mix_all(ring::largest_component(topology));
    out.component = h.value();
  }
  return out;
}

phy::Topology random64() {
  const auto placement = phy::placement::random_connected(
      64, phy::Rect{{0, 0}, {100, 100}}, 28.0, 4242);
  EXPECT_TRUE(placement.ok());
  return phy::Topology(placement.value(), phy::RadioParams{28.0, 0.0});
}

/// The random placement split by a partition and three dead stations, so
/// the component search and the dead-node paths have something to pick.
phy::Topology random64_split() {
  phy::Topology topology = random64();
  std::vector<NodeId> west;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (topology.position(n).x < 40.0) west.push_back(n);
  }
  topology.set_partition({west});
  topology.set_alive(5, false);
  topology.set_alive(23, false);
  topology.set_alive(41, false);
  return topology;
}

void expect_digests(const phy::Topology& topology,
                    const SetupDigests& expected) {
  const SetupDigests got = digest_setup(topology);
  EXPECT_EQ(got.greedy, expected.greedy) << std::hex << got.greedy;
  EXPECT_EQ(got.distributed, expected.distributed)
      << std::hex << got.distributed;
  EXPECT_EQ(got.ring, expected.ring) << std::hex << got.ring;
  EXPECT_EQ(got.component, expected.component) << std::hex << got.component;
}

TEST(SetupDigest, RingRoom32) {
  expect_digests(bench::ring_room(32),
                 {0x75d2025e7c4f4de4ULL, 0x1be474ad227dfbc8ULL, 0x59d1bb73ea085da5ULL,
                  0x1614295f42cfbda5ULL});
}

TEST(SetupDigest, RingRoom64) {
  expect_digests(bench::ring_room(64),
                 {0x5ff865f948818bc5ULL, 0x47d39eddc3d8304bULL, 0x0951acbcc2fdd405ULL,
                  0x1a4eba13a35d9405ULL});
}

TEST(SetupDigest, RingRoom128) {
  expect_digests(bench::ring_room(128),
                 {0xa83a64d080f3cccdULL, 0xf00ddb94a1b3164fULL, 0xcb169f2d6c076645ULL,
                  0x37c8133114acea45ULL});
}

TEST(SetupDigest, RandomConnected64) {
  expect_digests(random64(),
                 {0x5838a1981a1a367bULL, 0xa9cc2e3430f2af45ULL, 0x622d41779fea8045ULL,
                  0x1a4eba13a35d9405ULL});
}

TEST(SetupDigest, RandomConnected64Split) {
  expect_digests(random64_split(),
                 {0x760f2ccd99375073ULL, 0x3b44d846fc3cc19eULL, 0xfd16862abcd9ffc6ULL,
                  0xf7a19f7887321426ULL});
}

}  // namespace
}  // namespace wrt
