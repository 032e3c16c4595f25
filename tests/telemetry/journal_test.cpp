#include "telemetry/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace wrt::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(Journal, StartsEmpty) {
  const Journal journal;
  EXPECT_TRUE(journal.stations().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(journal.dropped(3), 0u);       // untouched station
  EXPECT_TRUE(journal.events(3).empty());
}

TEST(Journal, RecordsPerStationOldestFirst) {
  Journal journal;
  journal.record(2, JournalKind::kSatArrive, 100);
  journal.record(2, JournalKind::kSatRelease, 116, /*arg=*/3);
  journal.record(5, JournalKind::kTransmit, 120, /*arg=*/0, /*value=*/32);
  EXPECT_EQ(journal.stations(), (std::vector<NodeId>{2, 5}));
  const auto events = journal.events(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, JournalKind::kSatArrive);
  EXPECT_EQ(events[0].tick, 100);
  EXPECT_EQ(events[1].kind, JournalKind::kSatRelease);
  EXPECT_EQ(events[1].arg, 3u);
  ASSERT_EQ(journal.events(5).size(), 1u);
  EXPECT_EQ(journal.events(5)[0].value, 32u);
  EXPECT_EQ(journal.total_recorded(), 3u);
}

TEST(Journal, RingWrapKeepsNewestAndCountsDropped) {
  Journal journal(4);
  for (int i = 0; i < 10; ++i) {
    journal.record(1, JournalKind::kQueueDepth, i,
                   /*arg=*/0, /*value=*/static_cast<std::uint64_t>(i));
  }
  const auto events = journal.events(1);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().tick, 6);  // oldest surviving
  EXPECT_EQ(events.back().tick, 9);
  EXPECT_EQ(journal.dropped(1), 6u);
  EXPECT_EQ(journal.total_recorded(), 10u);
  EXPECT_EQ(journal.total_dropped(), 6u);
}

TEST(Journal, OverloadedStationCannotEvictAnother) {
  Journal journal(2);
  journal.record(0, JournalKind::kSatArrive, 1);
  for (int i = 0; i < 50; ++i) {
    journal.record(7, JournalKind::kQueueDepth, i);
  }
  EXPECT_EQ(journal.events(0).size(), 1u);  // untouched by station 7's churn
  EXPECT_EQ(journal.dropped(0), 0u);
  EXPECT_EQ(journal.dropped(7), 48u);
}

TEST(Journal, ClearDropsEverythingButKeepsCapacity) {
  Journal journal(2);
  for (int i = 0; i < 3; ++i) journal.record(1, JournalKind::kJoin, 10 + i);
  ASSERT_EQ(journal.total_dropped(), 1u);
  journal.clear();
  EXPECT_TRUE(journal.stations().empty());
  EXPECT_TRUE(journal.timeline().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(journal.dropped(1), 0u);
  EXPECT_EQ(journal.capacity_per_station(), 2u);
}

TEST(Journal, TimelineMergesStationsByTick) {
  Journal journal;
  journal.record(5, JournalKind::kSatArrive, 10);
  journal.record(2, JournalKind::kSatLost, 5, /*arg=*/3);
  journal.record(5, JournalKind::kSatRelease, 30, /*arg=*/6);
  journal.record(2, JournalKind::kSatRecStart, 20, /*arg=*/1);
  const auto timeline = journal.timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].station, 2u);
  EXPECT_EQ(timeline[0].event.kind, JournalKind::kSatLost);
  EXPECT_EQ(timeline[0].event.arg, 3u);
  EXPECT_EQ(timeline[1].station, 5u);
  EXPECT_EQ(timeline[1].event.tick, 10);
  EXPECT_EQ(timeline[2].station, 2u);
  EXPECT_EQ(timeline[2].event.kind, JournalKind::kSatRecStart);
  EXPECT_EQ(timeline[3].station, 5u);
  EXPECT_EQ(timeline[3].event.tick, 30);
}

TEST(Journal, TimelineTiesGoToLowerStationThenRecordOrder) {
  Journal journal;
  journal.record(7, JournalKind::kCutOut, 10, /*arg=*/1);
  journal.record(7, JournalKind::kSatRelease, 10, /*arg=*/8);
  journal.record(3, JournalKind::kSatArrive, 10);  // appended last
  const auto timeline = journal.timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].station, 3u);
  EXPECT_EQ(timeline[1].station, 7u);
  EXPECT_EQ(timeline[1].event.kind, JournalKind::kCutOut);
  EXPECT_EQ(timeline[2].station, 7u);
  EXPECT_EQ(timeline[2].event.kind, JournalKind::kSatRelease);
}

TEST(Journal, TimelineOfWrappedRingsHoldsOnlySurvivors) {
  Journal journal(2);
  for (int i = 0; i < 5; ++i) {  // ticks 0..4; 0..2 are overwritten
    journal.record(1, JournalKind::kRapStart, i);
  }
  journal.record(0, JournalKind::kJoin, 3);
  const auto timeline = journal.timeline();
  ASSERT_EQ(timeline.size(),
            journal.total_recorded() - journal.total_dropped());
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].station, 0u);
  EXPECT_EQ(timeline[0].event.tick, 3);
  EXPECT_EQ(timeline[1].station, 1u);
  EXPECT_EQ(timeline[1].event.tick, 3);
  EXPECT_EQ(timeline[2].station, 1u);
  EXPECT_EQ(timeline[2].event.tick, 4);
  EXPECT_EQ(journal.dropped(1), 3u);
}

TEST(Journal, SaveLoadRoundTripsEventsMetaAndDrops) {
  Journal journal(4);
  RingMeta meta;
  meta.ring_latency_slots = 32;
  meta.t_rap_slots = 20;
  meta.quotas = {{0, Quota{2, 1}}, {1, Quota{3, 2}}};
  journal.set_meta(meta);
  for (int i = 0; i < 6; ++i) {  // wraps: 2 dropped at station 0
    journal.record(0, JournalKind::kSatArrive, 10 * i, /*arg=*/9,
                   /*value=*/static_cast<std::uint64_t>(i));
  }
  journal.record(3, JournalKind::kCutOut, 999, /*arg=*/1);

  const std::string path = temp_path("journal_roundtrip.jrnl");
  ASSERT_TRUE(journal.save(path).ok());
  auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const Journal& copy = loaded.value();

  EXPECT_EQ(copy.capacity_per_station(), journal.capacity_per_station());
  EXPECT_EQ(copy.total_recorded(), journal.total_recorded());
  EXPECT_EQ(copy.dropped(0), 2u);
  EXPECT_EQ(copy.stations(), journal.stations());
  const auto original = journal.events(0);
  const auto restored = copy.events(0);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].tick, original[i].tick);
    EXPECT_EQ(restored[i].kind, original[i].kind);
    EXPECT_EQ(restored[i].arg, original[i].arg);
    EXPECT_EQ(restored[i].value, original[i].value);
  }
  EXPECT_EQ(copy.meta().ring_latency_slots, 32);
  EXPECT_EQ(copy.meta().t_rap_slots, 20);
  ASSERT_EQ(copy.meta().quotas.size(), 2u);
  EXPECT_EQ(copy.meta().quotas[1].first, 1u);
  EXPECT_EQ(copy.meta().quotas[1].second.l, 3u);
  EXPECT_EQ(copy.meta().quotas[1].second.k, 2u);
  std::remove(path.c_str());
}

TEST(Journal, EmptyJournalRoundTrips) {
  Journal journal(16);
  const std::string path = temp_path("journal_empty.jrnl");
  ASSERT_TRUE(journal.save(path).ok());
  auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_TRUE(loaded.value().stations().empty());
  EXPECT_EQ(loaded.value().total_recorded(), 0u);
  EXPECT_EQ(loaded.value().capacity_per_station(), 16u);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsMissingFile) {
  const auto loaded = Journal::load(temp_path("does_not_exist.jrnl"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error().message.empty());
}

TEST(Journal, LoadRejectsForeignFile) {
  const std::string path = temp_path("journal_garbage.jrnl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a journal";
  }
  const auto loaded = Journal::load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

/// A hand-built journal file: one header, no quotas unless asked, and one
/// ring (two with `duplicate_ring`) holding `count` records of raw kind
/// `kind` with reserved field `reserved`.
struct CraftedJournal {
  std::uint64_t capacity = 4;
  std::uint32_t quota_count = 0;
  NodeId station = 1;
  std::uint64_t count = 1;
  std::uint16_t kind = 0;
  std::uint16_t reserved = 0;
  bool duplicate_ring = false;   ///< list `station` twice
  std::uint64_t extra_total = 0; ///< added to the consistent header total

  [[nodiscard]] std::string write(const std::string& name) const {
    const std::string path = temp_path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto pod = [&out](const auto& value) {
      out.write(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    const std::uint32_t rings = duplicate_ring ? 2 : 1;
    out.write("WRTJRNL1", 8);
    pod(std::uint32_t{1});         // version
    pod(capacity);
    pod(rings * count + extra_total);  // total recorded
    pod(std::int64_t{32});         // ring latency
    pod(std::int64_t{20});         // T_rap
    pod(quota_count);              // no quota records follow
    pod(rings);                    // ring count
    JournalEvent record{};
    record.kind = static_cast<JournalKind>(kind);
    record.reserved = reserved;
    for (std::uint32_t r = 0; r < rings; ++r) {
      pod(station);
      pod(std::uint64_t{0});       // dropped
      pod(count);
      for (std::uint64_t i = 0; i < count; ++i) pod(record);
    }
    return path;
  }
};

/// Loads `crafted` and expects an invalid_argument rejection.
void expect_rejected(const CraftedJournal& crafted, const std::string& name) {
  const std::string path = crafted.write(name);
  const auto loaded = Journal::load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Journal, LoadDoesNotAllocateTheDeclaredCapacity) {
  // Capacity is a bound, not a size: a ring holds only the records it has,
  // so a journal declaring 2^40 slots per station loads in a few bytes.
  CraftedJournal crafted;
  crafted.capacity = std::uint64_t{1} << 40;
  const std::string path = crafted.write("journal_huge_capacity.jrnl");
  const auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().capacity_per_station(), crafted.capacity);
  EXPECT_EQ(loaded.value().events(crafted.station).size(), 1u);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsQuotaCountBeyondFile) {
  CraftedJournal crafted;
  crafted.quota_count = 0xFFFFFFFFu;
  const std::string path = crafted.write("journal_quota_count.jrnl");
  const auto loaded = Journal::load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsStationIdOutOfRange) {
  CraftedJournal crafted;
  crafted.station = 0xFFFFFFF0u;
  const std::string path = crafted.write("journal_station_id.jrnl");
  const auto loaded = Journal::load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsRecordCountBeyondFile) {
  CraftedJournal crafted;
  crafted.capacity = std::uint64_t{1} << 40;
  const std::string path = crafted.write("journal_record_count.jrnl");
  {
    // Rewrite the ring's record count (the last 8 bytes before the single
    // record) to claim far more records than the file holds.
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(-static_cast<std::streamoff>(sizeof(JournalEvent) +
                                          sizeof(std::uint64_t)),
             std::ios::end);
    const std::uint64_t claimed = std::uint64_t{1} << 36;
    io.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  }
  const auto loaded = Journal::load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsUnknownKind) {
  CraftedJournal crafted;
  crafted.kind = 0x7FFF;
  expect_rejected(crafted, "journal_unknown_kind.jrnl");
}

TEST(Journal, LoadRejectsRetiredSnapshotKind) {
  CraftedJournal crafted;
  crafted.kind = 10;  // reserved: the never-produced snapshot kind
  expect_rejected(crafted, "journal_snapshot_kind.jrnl");
}

TEST(Journal, LoadRejectsNonZeroReserved) {
  CraftedJournal crafted;
  crafted.reserved = 1;
  expect_rejected(crafted, "journal_reserved.jrnl");
}

TEST(Journal, LoadRejectsStationListedTwice) {
  CraftedJournal crafted;
  crafted.duplicate_ring = true;  // header total still matches both rings
  expect_rejected(crafted, "journal_duplicate_station.jrnl");
}

TEST(Journal, LoadRejectsHeaderTotalMismatch) {
  CraftedJournal crafted;
  crafted.extra_total = 1;
  expect_rejected(crafted, "journal_total_mismatch.jrnl");
}

TEST(Journal, LoadsParentFormatStallRecord) {
  // Kinds keep their on-disk numbers: 11 has meant kStall since the first
  // WRTJRNL1 file.
  CraftedJournal crafted;
  crafted.kind = 11;
  const std::string path = crafted.write("journal_stall.jrnl");
  const auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const auto events = loaded.value().events(crafted.station);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, JournalKind::kStall);
  std::remove(path.c_str());
}

TEST(Journal, KindNamesAreClosed) {
  for (int k = 0; k <= static_cast<int>(JournalKind::kTreeRebuilt); ++k) {
    const char* name = to_string(static_cast<JournalKind>(k));
    if (k == 10) {
      EXPECT_STREQ(name, "unknown");  // reserved, never written
    } else {
      EXPECT_STRNE(name, "unknown") << k;
    }
  }
  EXPECT_STREQ(to_string(static_cast<JournalKind>(
                   static_cast<int>(JournalKind::kTreeRebuilt) + 1)),
               "unknown");
}

}  // namespace
}  // namespace wrt::telemetry
