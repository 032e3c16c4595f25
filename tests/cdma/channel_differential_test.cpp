// Differential test of cdma::Channel against the listener x code x
// transmission loop it replaced.  The reference below resolves a slot the
// direct way: for every alive listener and each of its codes, scan all
// transmissions and ask the topology whether the sender reaches it.  The
// channel must agree on every slot: the returned collision count, the
// running totals and every listener's receptions, in order.
#include "cdma/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace wrt::cdma {
namespace {

using IntChannel = Channel<int>;
using Reception = IntChannel::Reception;

struct Tx {
  NodeId sender = kInvalidNode;
  CdmaCode code = kInvalidCode;
  int payload = 0;
};

struct Resolved {
  std::size_t collisions = 0;
  std::vector<std::vector<Reception>> receptions;
};

/// The reference resolver: O(listeners x codes x transmissions) reachable()
/// calls per slot.
Resolved resolve_reference(const phy::Topology& topology,
                           const std::vector<std::vector<CdmaCode>>& listeners,
                           const std::vector<Tx>& transmissions) {
  Resolved out;
  out.receptions.resize(listeners.size());
  for (NodeId node = 0; node < listeners.size(); ++node) {
    if (listeners[node].empty() || !topology.alive(node)) continue;
    for (const CdmaCode code : listeners[node]) {
      const Tx* heard = nullptr;
      bool collided = false;
      for (const Tx& tx : transmissions) {
        if (tx.code != code) continue;
        if (!topology.reachable(tx.sender, node)) continue;
        if (heard != nullptr) {
          collided = true;
          break;
        }
        heard = &tx;
      }
      if (collided) {
        ++out.collisions;
      } else if (heard != nullptr) {
        out.receptions[node].push_back(
            {heard->sender, heard->code, heard->payload});
      }
    }
  }
  return out;
}

/// Drives a Channel and the reference side by side and compares each slot.
class Differential {
 public:
  explicit Differential(const phy::Topology* topology)
      : topology_(topology), channel_(topology) {}

  void set_listen_codes(NodeId node, std::vector<CdmaCode> codes) {
    if (node >= listeners_.size()) listeners_.resize(node + 1);
    listeners_[node] = codes;
    channel_.set_listen_codes(node, std::move(codes));
  }

  void set_topology(const phy::Topology* topology) {
    topology_ = topology;
    channel_.set_topology(topology);
  }

  /// Runs one slot through both resolvers; returns the channel's result.
  [[nodiscard]] std::uint64_t collisions() const { return want_collisions_; }
  [[nodiscard]] std::uint64_t deliveries() const { return want_deliveries_; }

  Resolved slot(const std::vector<Tx>& transmissions) {
    channel_.begin_slot(now_);
    now_ += kTicksPerSlot;
    for (const Tx& tx : transmissions) {
      channel_.transmit(tx.sender, tx.code, tx.payload);
    }
    Resolved got;
    got.collisions = channel_.end_slot();
    const Resolved want =
        resolve_reference(*topology_, listeners_, transmissions);
    want_collisions_ += want.collisions;
    for (const auto& bucket : want.receptions) {
      want_deliveries_ += bucket.size();
    }

    EXPECT_EQ(got.collisions, want.collisions) << "slot " << slot_;
    EXPECT_EQ(channel_.total_collisions(), want_collisions_)
        << "slot " << slot_;
    EXPECT_EQ(channel_.total_deliveries(), want_deliveries_)
        << "slot " << slot_;
    const std::size_t nodes =
        std::max(listeners_.size(), topology_->node_count()) + 2;
    got.receptions.resize(nodes);
    for (NodeId node = 0; node < nodes; ++node) {
      got.receptions[node] = channel_.receptions(node);
      const std::vector<Reception> none;
      const auto& expect =
          node < want.receptions.size() ? want.receptions[node] : none;
      const auto& actual = got.receptions[node];
      EXPECT_EQ(actual.size(), expect.size())
          << "slot " << slot_ << " node " << node;
      for (std::size_t i = 0; i < std::min(actual.size(), expect.size());
           ++i) {
        EXPECT_EQ(actual[i].sender, expect[i].sender)
            << "slot " << slot_ << " node " << node << " rx " << i;
        EXPECT_EQ(actual[i].code, expect[i].code)
            << "slot " << slot_ << " node " << node << " rx " << i;
        EXPECT_EQ(actual[i].payload, expect[i].payload)
            << "slot " << slot_ << " node " << node << " rx " << i;
      }
    }
    ++slot_;
    return got;
  }

 private:
  const phy::Topology* topology_;
  IntChannel channel_;
  std::vector<std::vector<CdmaCode>> listeners_;
  Tick now_ = 0;
  std::size_t slot_ = 0;
  std::uint64_t want_collisions_ = 0;
  std::uint64_t want_deliveries_ = 0;
};

// A small code pool (broadcast plus five unicast codes) so that random
// slots produce same-code clashes often.
constexpr CdmaCode kCodePool = 6;

CdmaCode random_code(util::RngStream& rng) {
  return static_cast<CdmaCode>(rng.uniform_int(std::uint64_t{kCodePool}));
}

/// 1 to 4 codes from the pool; duplicates are allowed and do occur.
std::vector<CdmaCode> random_codes(util::RngStream& rng) {
  std::vector<CdmaCode> codes(1 + rng.uniform_int(std::uint64_t{4}));
  for (auto& code : codes) code = random_code(rng);
  return codes;
}

std::vector<phy::Vec2> random_positions(util::RngStream& rng, std::size_t n,
                                        double side) {
  std::vector<phy::Vec2> positions(n);
  for (auto& pos : positions) {
    pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  }
  return positions;
}

/// Up to 2n transmissions; senders include ids beyond the topology.
std::vector<Tx> random_slot(util::RngStream& rng, std::size_t n) {
  std::vector<Tx> txs(rng.uniform_int(std::uint64_t{2 * n + 1}));
  int payload = 0;
  for (auto& tx : txs) {
    tx.sender = static_cast<NodeId>(rng.uniform_int(std::uint64_t{n + 2}));
    tx.code = random_code(rng);
    tx.payload = ++payload;
  }
  return txs;
}

/// One random topology mutation: a death or revival, a link failure or
/// repair, a partition or its heal, or a move.
void mutate(util::RngStream& rng, phy::Topology& topology) {
  const std::size_t n = topology.node_count();
  const auto pick = [&] {
    return static_cast<NodeId>(rng.uniform_int(std::uint64_t{n}));
  };
  switch (rng.uniform_int(std::uint64_t{6})) {
    case 0: {
      const NodeId node = pick();
      topology.set_alive(node, !topology.alive(node));
      break;
    }
    case 1: topology.fail_link(pick(), pick()); break;
    case 2: topology.restore_link(pick(), pick()); break;
    case 3: {
      std::vector<NodeId> group;
      for (NodeId node = 0; node < n; ++node) {
        if (rng.bernoulli(0.5)) group.push_back(node);
      }
      topology.set_partition({group});
      break;
    }
    case 4: topology.clear_partition(); break;
    default: {
      const phy::Vec2 pos = topology.position(pick());
      topology.set_position(pick(), {pos.x + 3.0, pos.y - 2.0});
      break;
    }
  }
}

struct Case {
  std::size_t nodes;
  double side;
  phy::RadioParams radio;
  std::uint64_t seed;
};

void run_random_case(const Case& c, double mutate_prob, double relisten_prob) {
  util::RngStream rng(c.seed);
  phy::Topology topology(random_positions(rng, c.nodes, c.side), c.radio,
                         c.seed);
  Differential diff(&topology);
  for (NodeId node = 0; node < c.nodes; ++node) {
    diff.set_listen_codes(node, random_codes(rng));
  }
  // A few dead stations from the start.
  for (int i = 0; i < 2; ++i) {
    topology.set_alive(
        static_cast<NodeId>(rng.uniform_int(std::uint64_t{c.nodes})), false);
  }
  for (int slot = 0; slot < 400; ++slot) {
    if (rng.bernoulli(mutate_prob)) mutate(rng, topology);
    if (rng.bernoulli(relisten_prob)) {
      const auto node =
          static_cast<NodeId>(rng.uniform_int(std::uint64_t{c.nodes}));
      diff.set_listen_codes(node, rng.bernoulli(0.2)
                                      ? std::vector<CdmaCode>{}
                                      : random_codes(rng));
    }
    diff.slot(random_slot(rng, c.nodes));
    if (::testing::Test::HasFailure()) return;
  }
  // The random slots must exercise both outcomes, not just agree on none.
  EXPECT_GT(diff.collisions(), 0u);
  EXPECT_GT(diff.deliveries(), 0u);
}

const Case kCases[] = {
    {12, 40.0, {15.0, 0.0}, 1},
    {20, 60.0, {20.0, 0.0}, 2},
    {16, 30.0, {25.0, 0.0}, 3},   // dense: many listeners per sender
    {24, 80.0, {18.0, 6.0}, 4},   // shadowing
    {10, 50.0, {30.0, 12.0}, 5},  // heavy shadowing
};

TEST(ChannelDifferential, StaticTopologyRandomSlots) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.seed);
    run_random_case(c, 0.0, 0.0);
  }
}

TEST(ChannelDifferential, TopologyMutatedBetweenSlots) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.seed);
    run_random_case(c, 0.3, 0.0);
  }
}

TEST(ChannelDifferential, ListenCodesChangedBetweenSlots) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.seed);
    run_random_case(c, 0.0, 0.3);
  }
}

TEST(ChannelDifferential, EverythingChangesBetweenSlots) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.seed);
    run_random_case(c, 0.5, 0.5);
  }
}

/// Four stations on a line, 10 m apart, 12 m range: each hears only its
/// immediate neighbours.
phy::Topology line4() {
  return phy::Topology(phy::placement::chain(4, 10.0),
                       phy::RadioParams{12.0, 0.0});
}

TEST(ChannelDifferential, DeadListenersAndDeadSenders) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  for (NodeId node = 0; node < 4; ++node) {
    diff.set_listen_codes(node, {static_cast<CdmaCode>(node + 1),
                                 kBroadcastCode});
  }
  const std::vector<Tx> slot = {{0, 2, 1}, {2, kBroadcastCode, 2}};
  EXPECT_EQ(diff.slot(slot).receptions[1].size(), 2u);
  topology.set_alive(1, false);  // dead listener
  EXPECT_TRUE(diff.slot(slot).receptions[1].empty());
  topology.set_alive(1, true);
  topology.set_alive(2, false);  // dead sender
  EXPECT_EQ(diff.slot(slot).receptions[1].size(), 1u);
}

TEST(ChannelDifferential, FailedLinksAndPartitions) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  for (NodeId node = 0; node < 4; ++node) {
    diff.set_listen_codes(node, {kBroadcastCode});
  }
  const std::vector<Tx> slot = {{1, kBroadcastCode, 7}};
  EXPECT_EQ(diff.slot(slot).receptions[2].size(), 1u);
  topology.fail_link(1, 2);
  EXPECT_TRUE(diff.slot(slot).receptions[2].empty());
  EXPECT_EQ(diff.slot(slot).receptions[0].size(), 1u);
  topology.restore_link(1, 2);
  topology.set_partition({{0, 1}, {2, 3}});
  const Resolved cut = diff.slot(slot);
  EXPECT_EQ(cut.receptions[0].size(), 1u);
  EXPECT_TRUE(cut.receptions[2].empty());
  topology.clear_partition();
  EXPECT_EQ(diff.slot(slot).receptions[2].size(), 1u);
}

TEST(ChannelDifferential, ForcedSameCodeClashes) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  for (NodeId node = 0; node < 4; ++node) diff.set_listen_codes(node, {3});
  // Stations 0 and 2 both reach 1 on code 3; 2 alone reaches 3.
  const Resolved got = diff.slot({{0, 3, 1}, {2, 3, 2}});
  EXPECT_EQ(got.collisions, 1u);
  EXPECT_TRUE(got.receptions[1].empty());
  EXPECT_EQ(got.receptions[3].size(), 1u);
  // Everyone sends on code 3: the inner stations 1 and 2 each hear two
  // senders and collide; the ends 0 and 3 hear one each and receive.
  const Resolved all = diff.slot({{0, 3, 1}, {1, 3, 2}, {2, 3, 3}, {3, 3, 4}});
  EXPECT_EQ(all.collisions, 2u);
  EXPECT_EQ(all.receptions[0].size(), 1u);
  EXPECT_EQ(all.receptions[3].size(), 1u);
}

TEST(ChannelDifferential, ListenersWithOneToFourCodesAndDuplicates) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  diff.set_listen_codes(0, {4});
  diff.set_listen_codes(1, {5, 5});                // duplicated code
  diff.set_listen_codes(2, {1, 2, kBroadcastCode});
  diff.set_listen_codes(3, {2, 1, 2, kBroadcastCode});  // four, one repeated
  const Resolved one = diff.slot({{1, 2, 10}, {2, 5, 11}, {3, 1, 12}});
  EXPECT_EQ(one.receptions[1].size(), 2u);  // heard once per listen entry
  ASSERT_EQ(one.receptions[2].size(), 2u);
  EXPECT_EQ(one.receptions[2][0].payload, 12);  // listen-code order
  EXPECT_EQ(one.receptions[2][1].payload, 10);
  const Resolved clash = diff.slot({{0, 5, 1}, {2, 5, 2}});
  EXPECT_EQ(clash.collisions, 2u);  // once per duplicated entry
}

TEST(ChannelDifferential, OutOfRangeSenders) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  for (NodeId node = 0; node < 4; ++node) {
    diff.set_listen_codes(node, {kBroadcastCode});
  }
  // 0 -> 3 is 30 m (out of radio range); ids 4 and 99 are not in the
  // topology at all.
  const Resolved got =
      diff.slot({{0, kBroadcastCode, 1}, {4, kBroadcastCode, 2},
                 {99, kBroadcastCode, 3}});
  EXPECT_TRUE(got.receptions[3].empty());
  EXPECT_EQ(got.receptions[1].size(), 1u);
}

TEST(ChannelDifferential, SetTopologyToAnotherWithTheSameVersion) {
  phy::Topology spread = line4();
  // The same four stations packed within range of each other.
  phy::Topology packed(phy::placement::chain(4, 1.0),
                       phy::RadioParams{12.0, 0.0});
  ASSERT_EQ(spread.version(), packed.version());
  Differential diff(&spread);
  for (NodeId node = 0; node < 4; ++node) diff.set_listen_codes(node, {2});
  const std::vector<Tx> slot = {{0, 2, 5}};
  EXPECT_TRUE(diff.slot(slot).receptions[3].empty());
  diff.set_topology(&packed);
  EXPECT_EQ(diff.slot(slot).receptions[3].size(), 1u);
  diff.set_topology(&spread);
  EXPECT_TRUE(diff.slot(slot).receptions[3].empty());
}

TEST(ChannelDifferential, NodesAddedBetweenSlots) {
  phy::Topology topology = line4();
  Differential diff(&topology);
  for (NodeId node = 0; node < 4; ++node) diff.set_listen_codes(node, {1});
  diff.slot({{3, 1, 1}});
  const NodeId fresh = topology.add_node({35.0, 0.0});
  diff.set_listen_codes(fresh, {1});
  EXPECT_EQ(diff.slot({{3, 1, 2}}).receptions[fresh].size(), 1u);
  EXPECT_EQ(diff.slot({{fresh, 1, 3}}).receptions[3].size(), 1u);
}

}  // namespace
}  // namespace wrt::cdma
