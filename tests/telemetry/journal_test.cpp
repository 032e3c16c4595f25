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
  Journal journal(8);
  journal.record(1, JournalKind::kJoin, 10);
  journal.clear();
  EXPECT_TRUE(journal.stations().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.capacity_per_station(), 8u);
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
/// ring holding `count` zeroed records.
struct CraftedJournal {
  std::uint64_t capacity = 4;
  std::uint32_t quota_count = 0;
  NodeId station = 1;
  std::uint64_t count = 1;

  [[nodiscard]] std::string write(const std::string& name) const {
    const std::string path = temp_path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto pod = [&out](const auto& value) {
      out.write(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    out.write("WRTJRNL1", 8);
    pod(std::uint32_t{1});         // version
    pod(capacity);
    pod(std::uint64_t{count});     // total recorded
    pod(std::int64_t{32});         // ring latency
    pod(std::int64_t{20});         // T_rap
    pod(quota_count);              // no quota records follow
    pod(std::uint32_t{1});         // ring count
    pod(station);
    pod(std::uint64_t{0});         // dropped
    pod(count);
    for (std::uint64_t i = 0; i < count; ++i) pod(JournalEvent{});
    return path;
  }
};

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

TEST(Journal, KindNamesAreClosed) {
  for (int k = 0; k <= static_cast<int>(JournalKind::kSnapshot); ++k) {
    EXPECT_STRNE(to_string(static_cast<JournalKind>(k)), "unknown") << k;
  }
}

}  // namespace
}  // namespace wrt::telemetry
