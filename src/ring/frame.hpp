// Slot wire format.
//
// Section 2.1: "fixed-size slots continuously circulate into the ring.
// Each slot has a header and a data field.  Among other information, the
// header contains a bit that indicates the status busy or empty of the
// slot."  This module pins that header down to bytes so the simulator's
// in-memory frames have a defined over-the-air representation:
//
//   byte 0      flags: bit0 = busy, bits1-2 = traffic class, bits3-7 = 0
//   bytes 1-4   source station id     (little endian)
//   bytes 5-8   destination station id
//   bytes 9-12  flow id
//   bytes 13-20 sequence number
//   bytes 21-22 header CRC-16/CCITT over bytes 0-20
//
// An empty slot is all zeros with a valid CRC.  encode/decode round-trip
// exactly; decode rejects corrupted headers (wrong CRC, bad class bits),
// which is how a receiver discards frames damaged by a code collision.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::ring {

inline constexpr std::size_t kFrameHeaderBytes = 23;
using FrameHeaderBytes = std::array<std::uint8_t, kFrameHeaderBytes>;

/// The decoded header.
struct FrameHeader {
  bool busy = false;
  TrafficClass cls = TrafficClass::kBestEffort;
  NodeId src = 0;
  NodeId dst = 0;
  FlowId flow = 0;
  std::uint64_t sequence = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), one 256-entry table
/// lookup per byte.
[[nodiscard]] std::uint16_t crc16_ccitt(const std::uint8_t* data,
                                        std::size_t length);

/// Serialises a header (CRC appended).
[[nodiscard]] FrameHeaderBytes encode_header(const FrameHeader& header);

/// Header for a busy slot carrying `packet`.
[[nodiscard]] FrameHeaderBytes encode_packet_header(
    const traffic::Packet& packet);

/// The canonical empty-slot header.
[[nodiscard]] FrameHeaderBytes encode_empty_header();

/// Parses and CRC-checks; nullopt on any corruption.
[[nodiscard]] std::optional<FrameHeader> decode_header(
    const FrameHeaderBytes& bytes);

}  // namespace wrt::ring
