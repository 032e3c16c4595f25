// Random-placement property sweep over the connectivity substrate.
#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace wrt::phy {
namespace {

/// Adjacency and components recounted from reachable() alone, with a
/// different algorithm than Topology's (label propagation instead of a
/// flood), so the cached answers are checked against an independent oracle.
struct Recount {
  std::vector<std::vector<NodeId>> neighbors;
  std::vector<std::vector<NodeId>> components;
};

Recount recount(const Topology& t) {
  const std::size_t n = t.node_count();
  Recount out;
  out.neighbors.resize(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (t.reachable(a, b)) out.neighbors[a].push_back(b);
    }
  }
  // Every alive node starts as its own label; labels shrink to the smallest
  // id each node is connected to.
  std::vector<NodeId> label(n, kInvalidNode);
  for (NodeId a = 0; a < n; ++a) {
    if (t.alive(a)) label[a] = a;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId a = 0; a < n; ++a) {
      for (const NodeId b : out.neighbors[a]) {
        if (label[b] < label[a]) {
          label[a] = label[b];
          changed = true;
        }
      }
    }
  }
  // A label is its group's smallest id, so ascending ids meet it first.
  std::vector<std::size_t> group_of(n, 0);
  for (NodeId a = 0; a < n; ++a) {
    if (label[a] == kInvalidNode) continue;
    if (label[a] == a) {
      group_of[a] = out.components.size();
      out.components.emplace_back();
    }
    out.components[group_of[label[a]]].push_back(a);
  }
  return out;
}

/// Every cached query agrees with the recount, unknown ids included.
void expect_exact(const Topology& t) {
  const Recount want = recount(t);
  for (NodeId a = 0; a < t.node_count() + 2; ++a) {
    const std::vector<NodeId> none;
    EXPECT_EQ(t.neighbors(a),
              a < t.node_count() ? want.neighbors[a] : none)
        << "node " << a;
  }
  EXPECT_EQ(t.components(), want.components);
  EXPECT_EQ(t.connected(), want.components.size() <= 1);
  for (std::size_t degree = 0; degree <= 4; ++degree) {
    bool all = true;
    for (NodeId a = 0; a < t.node_count(); ++a) {
      if (t.alive(a) && want.neighbors[a].size() < degree) all = false;
    }
    EXPECT_EQ(t.min_degree_at_least(degree), all) << "degree " << degree;
  }
}

/// One random mutator call on `t`.
void mutate(Topology& t, util::RngStream& rng) {
  const auto node = [&] {
    return static_cast<NodeId>(rng.uniform_int(t.node_count()));
  };
  const auto spot = [&] {
    return Vec2{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)};
  };
  switch (rng.uniform_int(std::uint64_t{8})) {
    case 0:
      t.set_position(node(), spot());
      break;
    case 1:
      t.add_node(spot());
      break;
    case 2: {
      const NodeId victim = node();
      t.set_alive(victim, !t.alive(victim));
      break;
    }
    case 3:
      t.fail_link(node(), node());
      break;
    case 4: {
      // Fail then restore a real link, so restore_link has work to undo.
      const NodeId a = node();
      const auto& around = t.neighbors(a);
      if (!around.empty()) {
        const NodeId b = around[rng.uniform_int(around.size())];
        t.fail_link(a, b);
        t.restore_link(b, a);
      }
      break;
    }
    case 5: {
      std::vector<NodeId> group;
      for (NodeId a = 0; a < t.node_count(); ++a) {
        if (rng.bernoulli(0.4)) group.push_back(a);
      }
      t.set_partition({group});
      break;
    }
    case 6:
      t.clear_partition();
      break;
    default:
      t.clear_failed_links();
      break;
  }
}

class TopologyPropertySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyPropertySweep, StructuralInvariants) {
  const std::uint64_t seed = GetParam();
  const auto placement =
      placement::random_connected(18, Rect{{0, 0}, {60, 60}}, 22.0, seed);
  ASSERT_TRUE(placement.ok());
  const Topology t(placement.value(), RadioParams{22.0, 0.0});

  for (NodeId a = 0; a < t.node_count(); ++a) {
    // Nobody reaches themselves.
    EXPECT_FALSE(t.reachable(a, a));
    for (NodeId b = 0; b < t.node_count(); ++b) {
      // Symmetry.
      EXPECT_EQ(t.reachable(a, b), t.reachable(b, a));
      // Reachability agrees with geometry.
      if (a != b) {
        EXPECT_EQ(t.reachable(a, b),
                  distance(t.position(a), t.position(b)) <= 22.0);
      }
    }
    // Neighbour lists agree with reachable().
    for (const NodeId n : t.neighbors(a)) {
      EXPECT_TRUE(t.reachable(a, n));
    }
  }

  // Hidden-pair definition: both reach the receiver, not each other.
  for (NodeId r = 0; r < t.node_count(); ++r) {
    const auto neighbors = t.neighbors(r);
    for (const NodeId a : neighbors) {
      for (const NodeId c : neighbors) {
        if (a == c) continue;
        EXPECT_EQ(t.hidden_pair(a, c, r), !t.reachable(a, c));
      }
    }
  }

  // random_connected's promise.
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(t.min_degree_at_least(2));
}

TEST_P(TopologyPropertySweep, KillingNodesNeverAddsEdges) {
  const std::uint64_t seed = GetParam();
  const auto placement =
      placement::random_connected(14, Rect{{0, 0}, {50, 50}}, 20.0, seed);
  ASSERT_TRUE(placement.ok());
  Topology t(placement.value(), RadioParams{20.0, 0.0});
  std::size_t edges_before = 0;
  for (NodeId a = 0; a < t.node_count(); ++a) {
    edges_before += t.neighbors(a).size();
  }
  t.set_alive(3, false);
  t.set_alive(7, false);
  std::size_t edges_after = 0;
  for (NodeId a = 0; a < t.node_count(); ++a) {
    edges_after += t.neighbors(a).size();
  }
  EXPECT_LT(edges_after, edges_before);
  EXPECT_TRUE(t.neighbors(3).empty());
}

TEST_P(TopologyPropertySweep, CachedAdjacencyMatchesRecountAfterMutators) {
  const std::uint64_t seed = GetParam();
  const auto placement =
      placement::random_connected(16, Rect{{0, 0}, {60, 60}}, 22.0, seed);
  ASSERT_TRUE(placement.ok());
  // Shadowing makes each link's reach depend on the pair, not on distance.
  Topology t(placement.value(), RadioParams{22.0, 4.0}, seed);
  expect_exact(t);
  util::RngStream rng(seed, 0xAD1);
  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE(step);
    // Sometimes several mutators land between two queries.
    const auto burst = rng.uniform_int(std::int64_t{1}, std::int64_t{3});
    for (std::int64_t i = 0; i < burst; ++i) mutate(t, rng);
    expect_exact(t);
  }
}

TEST_P(TopologyPropertySweep, CopiesKeepSeparateExactCaches) {
  const std::uint64_t seed = GetParam();
  const auto placement =
      placement::random_connected(16, Rect{{0, 0}, {60, 60}}, 22.0, seed);
  ASSERT_TRUE(placement.ok());
  Topology original(placement.value(), RadioParams{22.0, 4.0}, seed);
  expect_exact(original);  // the copy starts from a filled cache
  Topology copy = original;
  util::RngStream rng(seed, 0xC0B1);
  for (int step = 0; step < 30; ++step) {
    SCOPED_TRACE(step);
    mutate(step % 2 == 0 ? copy : original, rng);
    expect_exact(original);
    expect_exact(copy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyPropertySweep,
                         ::testing::Values(2u, 3u, 7u, 9u, 13u, 21u));

}  // namespace
}  // namespace wrt::phy
