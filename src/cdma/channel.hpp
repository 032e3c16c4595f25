// Slotted CDMA channel model.
//
// Reproduces Figure 1 of the paper: within one TDMA slot, any number of
// stations may transmit simultaneously; a listener tuned to code c decodes
// exactly the transmissions spread with c that reach it.  Two or more
// same-code transmissions arriving at one listener in the same slot collide
// and destroy each other (this is what happens "if CDMA would not be used",
// and what a broken code assignment produces).  Per-slot operation:
//
//     channel.begin_slot(now);
//     channel.transmit(sender, code, payload);   // any number of calls
//     channel.end_slot();                        // resolves receptions
//     for (auto& rx : channel.receptions(node)) ...
//
// The channel is templated on the payload so each MAC keeps its own frame
// type; the interference logic only depends on topology and codes.
//
// Cost: end_slot() resolves per transmission, walking only the sender's
// neighbour list (phy::Topology owns and caches it), so a slot costs
// O(T·deg) for T transmissions.  The channel keeps only the listen codes,
// flattened into a CSR rebuilt after set_listen_codes().
#pragma once

#include <cstdint>
#include <vector>

#include "phy/topology.hpp"
#include "util/types.hpp"

namespace wrt::cdma {

template <typename Payload>
class Channel {
 public:
  struct Reception {
    NodeId sender = kInvalidNode;
    CdmaCode code = kInvalidCode;
    Payload payload{};
  };

  explicit Channel(const phy::Topology* topology) : topology_(topology) {}

  /// Registers the codes `node` listens on (its own receive code plus the
  /// broadcast code, normally).  Replaces any previous registration.
  void set_listen_codes(NodeId node, std::vector<CdmaCode> codes) {
    if (node >= listeners_.size()) listeners_.resize(node + 1);
    listeners_[node] = std::move(codes);
    listen_codes_valid_ = false;
  }

  void begin_slot(Tick now) {
    now_ = now;
    transmissions_.clear();
    for (auto& bucket : receptions_) bucket.clear();
  }

  /// `sender` spreads `payload` with `code` this slot.
  void transmit(NodeId sender, CdmaCode code, Payload payload) {
    transmissions_.push_back({sender, code, std::move(payload)});
  }

  /// Resolves all receptions for the current slot.  Returns the number of
  /// code collisions observed (same-code frames overlapping at a listener).
  /// Each (listener, listen code) that exactly one reachable transmission
  /// hits receives it; two or more hits are one collision.  A listener's
  /// receptions come out in its listen-code order.
  std::size_t end_slot() {
    if (receptions_.size() < listeners_.size()) {
      receptions_.resize(listeners_.size());
    }
    if (!listen_codes_valid_) rebuild_listen_codes();
    const std::size_t listener_count = listen_start_.size() - 1;
    for (std::uint32_t t = 0; t < transmissions_.size(); ++t) {
      const NodeId sender = transmissions_[t].sender;
      const CdmaCode code = transmissions_[t].code;
      // Ascending ids: past the last registered listener nobody else hears.
      for (const NodeId node : topology_->neighbors(sender)) {
        if (node >= listener_count) break;
        bool hit = false;
        for (std::uint32_t k = listen_start_[node];
             k < listen_start_[node + 1]; ++k) {
          if (listen_codes_[k] != code) continue;
          if (hits_[k]++ == 0) first_hit_[k] = t;
          hit = true;
        }
        if (hit && !touched_[node]) {
          touched_[node] = true;
          touched_nodes_.push_back(node);
        }
      }
    }
    std::size_t collisions = 0;
    for (const NodeId node : touched_nodes_) {
      touched_[node] = false;
      for (std::uint32_t k = listen_start_[node]; k < listen_start_[node + 1];
           ++k) {
        if (hits_[k] > 1) {
          ++collisions;
          total_collisions_ += 1;
        } else if (hits_[k] == 1) {
          receptions_[node].push_back(transmissions_[first_hit_[k]]);
          total_deliveries_ += 1;
        }
        hits_[k] = 0;
      }
    }
    touched_nodes_.clear();
    return collisions;
  }

  /// Frames successfully decoded by `node` in the slot just ended.
  [[nodiscard]] const std::vector<Reception>& receptions(NodeId node) const {
    static const std::vector<Reception> kEmpty;
    return node < receptions_.size() ? receptions_[node] : kEmpty;
  }

  [[nodiscard]] std::uint64_t total_collisions() const noexcept {
    return total_collisions_;
  }
  [[nodiscard]] std::uint64_t total_deliveries() const noexcept {
    return total_deliveries_;
  }
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Re-points the channel at a (possibly replaced) topology.
  void set_topology(const phy::Topology* topology) { topology_ = topology; }

 private:
  /// Flattens the listen codes into listen_start_/listen_codes_.
  void rebuild_listen_codes() {
    listen_start_.assign(1, 0);
    listen_codes_.clear();
    for (const auto& codes : listeners_) {
      listen_codes_.insert(listen_codes_.end(), codes.begin(), codes.end());
      listen_start_.push_back(static_cast<std::uint32_t>(listen_codes_.size()));
    }
    hits_.assign(listen_codes_.size(), 0);
    first_hit_.assign(listen_codes_.size(), 0);
    touched_.assign(listeners_.size(), false);
    listen_codes_valid_ = true;
  }

  const phy::Topology* topology_;
  Tick now_ = 0;
  std::vector<Reception> transmissions_;
  std::vector<std::vector<Reception>> receptions_;
  std::vector<std::vector<CdmaCode>> listeners_;
  std::uint64_t total_collisions_ = 0;
  std::uint64_t total_deliveries_ = 0;

  bool listen_codes_valid_ = false;
  std::vector<std::uint32_t> listen_start_;  ///< CSR row starts, per listener
  std::vector<CdmaCode> listen_codes_;
  // Per-slot scratch, indexed like listen_codes_ (all zero between slots).
  std::vector<std::uint32_t> hits_;
  std::vector<std::uint32_t> first_hit_;  ///< transmission index of 1st hit
  std::vector<bool> touched_;             ///< per listener
  std::vector<NodeId> touched_nodes_;
};

}  // namespace wrt::cdma
