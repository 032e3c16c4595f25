#include "telemetry/journal.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace wrt::telemetry {

namespace {
constexpr char kMagic[8] = {'W', 'R', 'T', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;
}  // namespace

const char* to_string(JournalKind kind) noexcept {
  switch (kind) {
    case JournalKind::kSatArrive: return "sat-arrive";
    case JournalKind::kSatRelease: return "sat-release";
    case JournalKind::kTransmit: return "transmit";
    case JournalKind::kDeliver: return "deliver";
    case JournalKind::kJoin: return "join";
    case JournalKind::kLeave: return "leave";
    case JournalKind::kCutOut: return "cut-out";
    case JournalKind::kSatRecStart: return "sat-rec-start";
    case JournalKind::kSatRecDone: return "sat-rec-done";
    case JournalKind::kQueueDepth: return "queue-depth";
    case JournalKind::kSnapshot: return "snapshot";
    case JournalKind::kStall: return "stall";
    case JournalKind::kResume: return "resume";
    case JournalKind::kControlLost: return "control-lost";
    case JournalKind::kRebuildDrop: return "rebuild-drop";
  }
  return "unknown";
}

Journal::Journal(std::size_t capacity_per_station)
    : capacity_(std::max<std::size_t>(1, capacity_per_station)) {}

Journal::StationRing& Journal::ring_for(NodeId station) {
  if (station >= rings_.size()) {
    rings_.resize(static_cast<std::size_t>(station) + 1);
  }
  StationRing& ring = rings_[station];
  ring.station = station;
  return ring;
}

const Journal::StationRing* Journal::find_ring(
    NodeId station) const noexcept {
  if (station >= rings_.size()) return nullptr;
  const StationRing& ring = rings_[station];
  return ring.station == kInvalidNode ? nullptr : &ring;
}

void Journal::record(NodeId station, JournalKind kind, Tick tick,
                     std::uint32_t arg, std::uint64_t value) {
  StationRing& ring = ring_for(station);
  const JournalEvent event{tick, value, kind, 0, arg};
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(event);  // still filling: head stays at 0
  } else {
    // Overwrite the oldest record; the wrap is counted, never silent.
    ring.slots[ring.head] = event;
    ring.head = ring.head + 1 == capacity_ ? 0 : ring.head + 1;
    ++ring.dropped;
  }
  ++total_;
}

std::vector<NodeId> Journal::stations() const {
  std::vector<NodeId> result;
  for (const StationRing& ring : rings_) {
    if (!ring.slots.empty()) result.push_back(ring.station);
  }
  return result;
}

std::vector<JournalEvent> Journal::events(NodeId station) const {
  std::vector<JournalEvent> result;
  const StationRing* ring = find_ring(station);
  if (ring == nullptr) return result;
  // Oldest first: [head, end) then [0, head); head is 0 until the ring wraps.
  const auto head =
      ring->slots.begin() + static_cast<std::ptrdiff_t>(ring->head);
  result.assign(head, ring->slots.end());
  result.insert(result.end(), ring->slots.begin(), head);
  return result;
}

std::uint64_t Journal::dropped(NodeId station) const noexcept {
  const StationRing* ring = find_ring(station);
  return ring == nullptr ? 0 : ring->dropped;
}

std::uint64_t Journal::total_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const StationRing& ring : rings_) total += ring.dropped;
  return total;
}

void Journal::clear() {
  rings_.clear();
  total_ = 0;
  meta_ = RingMeta{};
}

namespace {
template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

util::Status Journal::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Error::invalid_argument("journal save: cannot open " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(capacity_));
  write_pod(out, total_);
  // Meta block.
  write_pod(out, meta_.ring_latency_slots);
  write_pod(out, meta_.t_rap_slots);
  write_pod(out, static_cast<std::uint32_t>(meta_.quotas.size()));
  for (const auto& [node, quota] : meta_.quotas) {
    write_pod(out, node);
    write_pod(out, quota.l);
    write_pod(out, quota.k);
  }
  // Rings: only materialised ones, unwrapped to oldest-first order.
  std::uint32_t ring_count = 0;
  for (const StationRing& ring : rings_) {
    if (ring.station != kInvalidNode) ++ring_count;
  }
  write_pod(out, ring_count);
  for (const StationRing& ring : rings_) {
    if (ring.station == kInvalidNode) continue;
    write_pod(out, ring.station);
    write_pod(out, ring.dropped);
    write_pod(out, static_cast<std::uint64_t>(ring.slots.size()));
    for (const JournalEvent& event : events(ring.station)) {
      write_pod(out, event);
    }
  }
  if (!out) {
    return util::Error::invalid_argument("journal save: write failed: " +
                                         path);
  }
  return util::Status::success();
}

util::Result<Journal> Journal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return util::Error::not_found("journal load: cannot open " + path);
  }
  // Every count below is checked against the bytes still unread, so no
  // header field can make this function allocate more than the file holds.
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  const auto fits = [&](std::uint64_t count, std::size_t record_bytes) {
    const std::streamoff left = file_size - in.tellg();
    return left >= 0 &&
           count <= static_cast<std::uint64_t>(left) / record_bytes;
  };
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Error::invalid_argument("journal load: bad magic: " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  if (!read_pod(in, version) || version != kVersion) {
    return util::Error::invalid_argument("journal load: unsupported version");
  }
  if (!read_pod(in, capacity) || !read_pod(in, total) || capacity == 0) {
    return util::Error::invalid_argument("journal load: corrupt header");
  }
  Journal journal(static_cast<std::size_t>(capacity));
  journal.total_ = total;
  RingMeta meta;
  std::uint32_t quota_count = 0;
  constexpr std::size_t kQuotaBytes =
      sizeof(NodeId) + sizeof(Quota::l) + sizeof(Quota::k);
  if (!read_pod(in, meta.ring_latency_slots) ||
      !read_pod(in, meta.t_rap_slots) || !read_pod(in, quota_count) ||
      !fits(quota_count, kQuotaBytes)) {
    return util::Error::invalid_argument("journal load: corrupt meta");
  }
  meta.quotas.reserve(quota_count);
  for (std::uint32_t i = 0; i < quota_count; ++i) {
    NodeId node = kInvalidNode;
    Quota quota;
    if (!read_pod(in, node) || !read_pod(in, quota.l) ||
        !read_pod(in, quota.k)) {
      return util::Error::invalid_argument("journal load: corrupt quotas");
    }
    meta.quotas.emplace_back(node, quota);
  }
  journal.meta_ = std::move(meta);
  std::uint32_t ring_count = 0;
  constexpr std::size_t kRingHeaderBytes =
      sizeof(NodeId) + 2 * sizeof(std::uint64_t);
  if (!read_pod(in, ring_count) || !fits(ring_count, kRingHeaderBytes)) {
    return util::Error::invalid_argument("journal load: corrupt ring table");
  }
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    NodeId station = kInvalidNode;
    std::uint64_t dropped = 0;
    std::uint64_t count = 0;
    if (!read_pod(in, station) || !read_pod(in, dropped) ||
        !read_pod(in, count) || count > capacity ||
        !fits(count, sizeof(JournalEvent))) {
      return util::Error::invalid_argument("journal load: corrupt ring");
    }
    if (station >= kMaxLoadStations) {
      return util::Error::invalid_argument(
          "journal load: station id out of range");
    }
    StationRing& ring = journal.ring_for(station);
    ring.dropped = dropped;
    ring.slots.resize(static_cast<std::size_t>(count));
    for (JournalEvent& event : ring.slots) {
      if (!read_pod(in, event)) {
        return util::Error::invalid_argument("journal load: truncated ring");
      }
    }
  }
  return journal;
}

}  // namespace wrt::telemetry
