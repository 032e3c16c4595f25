#include "ring/frame.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace wrt::ring {
namespace {

FrameHeader sample_header() {
  FrameHeader header;
  header.busy = true;
  header.cls = TrafficClass::kRealTime;
  header.src = 3;
  header.dst = 7;
  header.flow = 42;
  header.sequence = 0x0123456789ABCDEFull;
  return header;
}

TEST(FrameCodec, RoundTrip) {
  const FrameHeader header = sample_header();
  const auto decoded = decode_header(encode_header(header));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, header);
}

TEST(FrameCodec, EmptySlotRoundTrip) {
  const auto decoded = decode_header(encode_empty_header());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->busy);
  EXPECT_EQ(decoded->src, 0u);
  EXPECT_EQ(decoded->sequence, 0u);
}

TEST(FrameCodec, PacketHeaderCarriesPacketFields) {
  traffic::Packet packet;
  packet.flow = 9;
  packet.cls = TrafficClass::kAssured;
  packet.src = 1;
  packet.dst = 5;
  packet.sequence = 77;
  const auto decoded = decode_header(encode_packet_header(packet));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->busy);
  EXPECT_EQ(decoded->cls, TrafficClass::kAssured);
  EXPECT_EQ(decoded->src, 1u);
  EXPECT_EQ(decoded->dst, 5u);
  EXPECT_EQ(decoded->flow, 9u);
  EXPECT_EQ(decoded->sequence, 77u);
}

TEST(FrameCodec, SingleBitFlipsAreDetected) {
  const FrameHeaderBytes clean = encode_header(sample_header());
  for (std::size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      FrameHeaderBytes corrupted = clean;
      corrupted[byte] = static_cast<std::uint8_t>(corrupted[byte] ^
                                                  (1u << bit));
      const auto decoded = decode_header(corrupted);
      // Either rejected outright or (never) silently equal to the original.
      if (decoded.has_value()) {
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                      << " went undetected";
      }
    }
  }
}

TEST(FrameCodec, RandomHeadersRoundTripProperty) {
  util::RngStream rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    FrameHeader header;
    header.busy = rng.bernoulli(0.5);
    header.cls = static_cast<TrafficClass>(rng.uniform_int(std::uint64_t{3}));
    header.src = static_cast<NodeId>(rng.bits() & 0xFFFFFFFFu);
    header.dst = static_cast<NodeId>(rng.bits() & 0xFFFFFFFFu);
    header.flow = static_cast<FlowId>(rng.bits() & 0xFFFFFFFFu);
    header.sequence = rng.bits();
    const auto decoded = decode_header(encode_header(header));
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    ASSERT_EQ(*decoded, header) << "trial " << trial;
  }
}

TEST(FrameCodec, RandomGarbageMostlyRejected) {
  util::RngStream rng(11);
  int accepted = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    FrameHeaderBytes garbage;
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.bits());
    }
    if (decode_header(garbage).has_value()) ++accepted;
  }
  // A 16-bit CRC plus 7 structural bits: acceptance ~2^-21.
  EXPECT_LE(accepted, 2);
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data, sizeof data), 0x29B1);
}

// The bit-serial CRC-16/CCITT-FALSE the table-driven crc16_ccitt must
// reproduce: shift each byte in MSB first, xor 0x1021 on a carry.
std::uint16_t crc16_bitwise(const std::uint8_t* data, std::size_t length) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < length; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i]) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) != 0
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

TEST(Crc16, EmptyBufferIsInitValue) {
  EXPECT_EQ(crc16_ccitt(nullptr, 0), 0xFFFF);
}

TEST(Crc16, TableMatchesBitSerialOnRandomBuffers) {
  util::RngStream rng(16);
  std::vector<std::uint8_t> buffer;
  for (std::size_t length = 0; length <= 64; ++length) {
    for (int trial = 0; trial < 64; ++trial) {
      buffer.resize(length);
      for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.bits());
      ASSERT_EQ(crc16_ccitt(buffer.data(), length),
                crc16_bitwise(buffer.data(), length))
          << "length " << length << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace wrt::ring
