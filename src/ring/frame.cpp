#include "ring/frame.hpp"

#include <array>

namespace wrt::ring {

namespace {

void put_u32(FrameHeaderBytes& bytes, std::size_t at, std::uint32_t value) {
  bytes[at] = static_cast<std::uint8_t>(value);
  bytes[at + 1] = static_cast<std::uint8_t>(value >> 8);
  bytes[at + 2] = static_cast<std::uint8_t>(value >> 16);
  bytes[at + 3] = static_cast<std::uint8_t>(value >> 24);
}

void put_u64(FrameHeaderBytes& bytes, std::size_t at, std::uint64_t value) {
  put_u32(bytes, at, static_cast<std::uint32_t>(value));
  put_u32(bytes, at + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t get_u32(const FrameHeaderBytes& bytes, std::size_t at) {
  return static_cast<std::uint32_t>(bytes[at]) |
         static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[at + 3]) << 24;
}

std::uint64_t get_u64(const FrameHeaderBytes& bytes, std::size_t at) {
  return static_cast<std::uint64_t>(get_u32(bytes, at)) |
         static_cast<std::uint64_t>(get_u32(bytes, at + 4)) << 32;
}

// kCrc16Table[b] is the CRC register after shifting byte b through a zero
// register, MSB first, with polynomial 0x1021: one lookup replaces the
// eight conditional shifts of the bit-serial loop.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::size_t byte = 0; byte < table.size(); ++byte) {
    auto crc = static_cast<std::uint16_t>(byte << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) != 0
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                : static_cast<std::uint16_t>(crc << 1);
    }
    table[byte] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();

}  // namespace

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t length) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < length; ++i) {
    const auto index = static_cast<std::uint8_t>((crc >> 8) ^ data[i]);
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16Table[index]);
  }
  return crc;
}

FrameHeaderBytes encode_header(const FrameHeader& header) {
  FrameHeaderBytes bytes{};
  std::uint8_t flags = header.busy ? 0x01 : 0x00;
  flags = static_cast<std::uint8_t>(
      flags | (static_cast<std::uint8_t>(header.cls) << 1));
  bytes[0] = flags;
  put_u32(bytes, 1, header.src);
  put_u32(bytes, 5, header.dst);
  put_u32(bytes, 9, header.flow);
  put_u64(bytes, 13, header.sequence);
  const std::uint16_t crc = crc16_ccitt(bytes.data(), 21);
  bytes[21] = static_cast<std::uint8_t>(crc);
  bytes[22] = static_cast<std::uint8_t>(crc >> 8);
  return bytes;
}

FrameHeaderBytes encode_packet_header(const traffic::Packet& packet) {
  FrameHeader header;
  header.busy = true;
  header.cls = packet.cls;
  header.src = packet.src;
  header.dst = packet.dst;
  header.flow = packet.flow;
  header.sequence = packet.sequence;
  return encode_header(header);
}

FrameHeaderBytes encode_empty_header() { return encode_header({}); }

std::optional<FrameHeader> decode_header(const FrameHeaderBytes& bytes) {
  const std::uint16_t stored =
      static_cast<std::uint16_t>(bytes[21]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(bytes[22]) << 8);
  if (crc16_ccitt(bytes.data(), 21) != stored) return std::nullopt;
  const std::uint8_t flags = bytes[0];
  if ((flags & ~0x07u) != 0) return std::nullopt;  // reserved bits must be 0
  const std::uint8_t cls_bits = (flags >> 1) & 0x03u;
  if (cls_bits > 2) return std::nullopt;
  FrameHeader header;
  header.busy = (flags & 0x01u) != 0;
  header.cls = static_cast<TrafficClass>(cls_bits);
  header.src = get_u32(bytes, 1);
  header.dst = get_u32(bytes, 5);
  header.flow = get_u32(bytes, 9);
  header.sequence = get_u64(bytes, 13);
  return header;
}

}  // namespace wrt::ring
