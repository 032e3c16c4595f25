// Per-station binary event journal.
//
// Counters say how much; the journal says when, where, and in what order —
// at production scale.  Each station owns a fixed-capacity ring of 24-byte
// POD records that grows to its capacity and then wraps, so appending is a
// store (no formatting), long runs overwrite their own oldest history per
// station instead of growing, and an overloaded station cannot evict
// another station's events.  Overwritten records are counted per ring and
// surfaced by every exporter.
//
// The journal is the engines' only record of protocol events: each protocol
// moment (SAT loss, SAT_REC, cut-out, join, re-formation, TPT claim, ...) is
// one record, and timeline() gives the ordered cross-station view that tests
// and examples read.  It is opt-in: engines take a Journal* and skip every
// record call when none is attached, which is why the always-on telemetry
// budget is the registry's counters alone.  save()/load() round-trip the
// rings plus the RingMeta needed to evaluate the paper's bounds offline
// (tools/wrt_report).
//
// Events that concern the whole ring rather than one station are filed at
// one fixed station, so each leaves exactly one record:
//  * kRebuildStart and kRebuildDrop at the old ring's first station (TPT:
//    the old tree's root);
//  * kRebuildDone and kTreeRebuilt at the station the new SAT or token
//    launches from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"

namespace wrt::telemetry {

/// What happened.  The numbers are the on-disk encoding: kinds are only
/// ever appended, so a journal written by an older build still loads.
enum class JournalKind : std::uint16_t {
  kSatArrive = 0,   ///< SAT reached this station
  kSatRelease,      ///< SAT forwarded downstream (arg = next station)
  kTransmit,        ///< local injection (arg = TrafficClass, value = delay
                    ///<   queue -> tx in ticks)
  kDeliver,         ///< frame absorbed here (arg = source station)
  kJoin,            ///< this station entered the ring (arg = ingress)
  kLeave,           ///< graceful leave completed (arg = leaver)
  kCutOut,          ///< this station was cut out (arg = SAT_REC origin)
  kSatRecStart,     ///< SAT_TIMER expired here; this station generated a
                    ///<   SAT_REC (arg = suspect predecessor)
  kSatRecDone,      ///< SAT_REC returned here; ring re-established
  kQueueDepth,      ///< periodic sample (value = packets queued)
  // 10 is reserved: it was a registry-snapshot kind nothing ever produced,
  // and load() rejects it.
  kStall = 11,      ///< this station wedged (fault plane)
  kResume,          ///< this station un-wedged
  kControlLost,     ///< lost JOIN_REQ/JOIN_ACK (arg = attempt number)
  kRebuildDrop,     ///< teardown discarded in-flight frames (arg = count)
  kSatLaunched,     ///< a fresh SAT was launched from this station
  kSatLost,         ///< the SAT died leaving this station (arg = target)
  kRebuildStart,    ///< ring re-formation started
  kRebuildDone,     ///< ring re-formed (arg = new ring size)
  kRapStart,        ///< this station opened a RAP as ingress
  kJoinRejected,    ///< this joiner was refused or gave up (arg = ingress)
  kTokenLost,       ///< TPT: the token died leaving this station
                    ///<   (arg = target)
  kClaimStart,      ///< TPT: token timer expired here; claim token issued
  kClaimDone,       ///< TPT: the claim returned here; tree kept
  kTreeRebuilt,     ///< TPT: tree rebuilt (arg = new tree size)
};

[[nodiscard]] const char* to_string(JournalKind kind) noexcept;

/// False for the per-slot data-plane kinds (SAT arrive/release, transmit,
/// deliver, queue samples), true for every protocol event.
[[nodiscard]] bool is_protocol_event(JournalKind kind) noexcept;

/// One fixed-width record.  POD on purpose: save()/load() move these as raw
/// bytes and the append path is a struct store.
struct JournalEvent {
  std::int64_t tick = 0;
  std::uint64_t value = 0;     ///< kind-specific payload (ticks, depth, ...)
  JournalKind kind{};
  std::uint16_t reserved = 0;  ///< zero; keeps the layout explicit
  std::uint32_t arg = 0;       ///< kind-specific peer station / class
};
static_assert(sizeof(JournalEvent) == 24, "journal record layout drifted");

/// One record of the merged timeline, tagged with the station that holds it.
struct StationEvent {
  NodeId station = kInvalidNode;
  JournalEvent event;
};

/// Ring parameters embedded in the journal file so offline analysis can
/// evaluate the Theorem 1/2 bounds without the live engine.
struct RingMeta {
  std::int64_t ring_latency_slots = 0;  ///< S
  std::int64_t t_rap_slots = 0;         ///< T_rap
  std::vector<std::pair<NodeId, Quota>> quotas;  ///< per ring member
};

/// Shard-confined single-writer: the journal's append path is an index
/// computation plus a plain store, so exactly one engine thread may record
/// into a journal and readers (exporters, wrt_report) must wait for the
/// writer to quiesce.  Per-shard journals in a federation are merged
/// offline, never shared live.
class WRT_SHARD_CONFINED Journal {
 public:
  /// `capacity_per_station` bounds each station's ring (rounded up to 1).
  explicit Journal(std::size_t capacity_per_station = 4096);

  /// Appends to `station`'s ring, overwriting (and counting) the oldest
  /// record when full.  Stations are materialised lazily on first use.
  void record(NodeId station, JournalKind kind, Tick tick,
              std::uint32_t arg = 0, std::uint64_t value = 0);

  [[nodiscard]] std::size_t capacity_per_station() const noexcept {
    return capacity_;
  }

  /// Stations that have at least one record, ascending NodeId.
  [[nodiscard]] std::vector<NodeId> stations() const;

  /// `station`'s surviving records, oldest first (unwrapped copy).
  [[nodiscard]] std::vector<JournalEvent> events(NodeId station) const;

  /// Every station's surviving records in one sequence ordered by tick.
  /// Equal ticks go to the lower station id first, and each station's
  /// records keep their ring order (engines append in tick order).
  [[nodiscard]] std::vector<StationEvent> timeline() const;

  /// Records overwritten out of `station`'s ring.
  [[nodiscard]] std::uint64_t dropped(NodeId station) const noexcept;

  /// Total appends across all stations (surviving + overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

  void set_meta(RingMeta meta) { meta_ = std::move(meta); }
  [[nodiscard]] const RingMeta& meta() const noexcept { return meta_; }

  void clear();

  /// Binary serialisation (little-endian host assumed, versioned header).
  [[nodiscard]] util::Status save(const std::string& path) const;
  /// Every count in the file is checked against the bytes left to read and
  /// every station id against kMaxLoadStations, so a corrupt or crafted
  /// file returns an error instead of allocating without bound.  A record
  /// with an unknown kind or a non-zero reserved field, a station listed
  /// twice, or a header total other than the rings' surviving + dropped
  /// records is rejected too: save() never writes any of them.
  [[nodiscard]] static util::Result<Journal> load(const std::string& path);

  /// Largest station id load() accepts, plus one.  Station ids index
  /// rings_ densely, so loading id s allocates s + 1 ring headers.  The
  /// largest ring the simulator builds has 4,096 stations (a federation
  /// gives each ring its own topology), and the cap keeps a crafted id to
  /// a few MiB.
  static constexpr NodeId kMaxLoadStations = NodeId{1} << 16;

 private:
  struct StationRing {
    NodeId station = kInvalidNode;    ///< kInvalidNode: never touched
    std::vector<JournalEvent> slots;  ///< grows to capacity_, then wraps
    std::size_t head = 0;             ///< oldest surviving record
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] StationRing& ring_for(NodeId station);
  [[nodiscard]] const StationRing* find_ring(NodeId station) const noexcept;

  std::size_t capacity_;
  // Indexed by NodeId (dense: station ids are small by construction).
  std::vector<StationRing> rings_;
  std::uint64_t total_ = 0;
  RingMeta meta_;
};

}  // namespace wrt::telemetry
