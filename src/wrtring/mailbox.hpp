// Inter-shard mail: double-buffered frame queues flipped between epochs.
//
// Federation shards never touch each other's engines (the shard-confinement
// contract, DESIGN.md §11/§12).  All cross-shard traffic travels as
// value-type FederationFrames through one Mailbox per ordered shard pair
// (src, dst).  During an epoch the producing shard appends to the write
// buffer and the consuming shard drains the read buffer — two distinct
// vectors, so the two threads never share a byte.  Between epochs the
// coordinator flips the buffers serially.  The worker pool's go/done
// signals order every access (FederationEngine::run_epochs): each
// worker's release decrement of "done", acquired by the coordinator,
// makes the epoch's posts happen-before the flip, and the coordinator's
// release of the next "go", acquired by each worker, makes the flip
// happen-before the next drains.  So there is no lock and no atomic in
// this file, and none is needed: no buffer is ever written and read
// inside the same epoch.
//
// Frames are plain values on purpose: the lint rule `cross-shard-handle`
// rejects pointer/reference members in *Frame types under wrtring/, which
// is what keeps a mailbox from ever smuggling an Engine* across shards.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace wrt::wrtring {

/// One packet crossing a ring boundary, snapshotted at the source ring's
/// gateway.  Value type only — enough to rebuild a traffic::Packet at the
/// destination shard and to account the crossing end to end.
struct FederationFrame {
  FlowId flow = kInvalidFlow;
  TrafficClass cls = TrafficClass::kBestEffort;
  std::uint32_t src_ring = 0;        ///< global ring index of the egress ring
  std::uint32_t dst_ring = 0;        ///< global ring index of the ingress ring
  NodeId dst_station = kInvalidNode; ///< final destination in dst_ring
  Tick created = 0;                  ///< original packet creation time
  Tick gateway_out = 0;              ///< delivery time at the egress gateway
  Tick deadline = kNeverTick;        ///< absolute, carried across the crossing
  std::uint64_t sequence = 0;
};

/// Double-buffered SPSC frame queue for one ordered shard pair.
class Mailbox {
 public:
  /// Producer side (owning shard's worker thread, during an epoch).
  void post(const FederationFrame& frame) { write_.push_back(frame); }

  /// Consumer side (destination shard's worker thread, during an epoch):
  /// frames the producer posted in the *previous* epoch.
  [[nodiscard]] const std::vector<FederationFrame>& inbound() const noexcept {
    return read_;
  }

  /// Coordinator only, between epochs: publishes this epoch's posts as
  /// next epoch's inbound and recycles the drained buffer.
  void flip() {
    read_.swap(write_);
    write_.clear();
  }

  /// Frames posted this epoch but not yet published.
  [[nodiscard]] std::size_t pending() const noexcept { return write_.size(); }

 private:
  std::vector<FederationFrame> write_;
  std::vector<FederationFrame> read_;
};

}  // namespace wrt::wrtring
