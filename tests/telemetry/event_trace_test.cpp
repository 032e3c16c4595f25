// The protocol event trace is the Journal read through timeline(): these
// cases check the trace-level behaviours (formatting, bounded capacity, kind
// filtering, clearing, export) on that view.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "telemetry/exporters.hpp"
#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"

namespace wrt::telemetry {
namespace {

using wrtring::testing::of_kind;

std::string exported(const Journal& journal) {
  std::ostringstream out;
  write_chrome_trace(out, journal);
  return out.str();
}

TEST(EventTrace, RecordsAndFormats) {
  Journal journal;
  journal.record(3, JournalKind::kCutOut, slots_to_ticks(50), /*arg=*/4);
  const auto timeline = journal.timeline();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline.front().station, 3u);
  EXPECT_EQ(timeline.front().event.tick, slots_to_ticks(50));
  EXPECT_EQ(timeline.front().event.arg, 4u);
  EXPECT_STREQ(to_string(timeline.front().event.kind), "cut-out");
}

TEST(EventTrace, BoundedCapacity) {
  Journal journal(4);
  for (int i = 0; i < 10; ++i) {
    journal.record(0, JournalKind::kRapStart, slots_to_ticks(i));
  }
  const auto timeline = journal.timeline();
  EXPECT_EQ(timeline.size(), 4u);
  EXPECT_EQ(journal.total_recorded(), 10u);
  EXPECT_EQ(timeline.front().event.tick, slots_to_ticks(6));  // oldest kept
}

TEST(EventTrace, OfKindFilters) {
  Journal journal;
  journal.record(1, JournalKind::kSatLost, 1);
  journal.record(2, JournalKind::kSatRecStart, 2);
  journal.record(1, JournalKind::kSatLost, 3);
  const auto timeline = journal.timeline();
  EXPECT_EQ(of_kind(timeline, JournalKind::kSatLost).size(), 2u);
  EXPECT_EQ(of_kind(timeline, JournalKind::kCutOut).size(), 0u);
}

TEST(EventTrace, ClearResets) {
  Journal journal;
  journal.record(5, JournalKind::kJoin, 1);
  journal.clear();
  EXPECT_TRUE(journal.timeline().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
}

TEST(EventTrace, AllKindsStringify) {
  // Every written kind has a name of its own, so a printed trace line
  // always says which protocol moment it was.
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(JournalKind::kTreeRebuilt); ++k) {
    if (k == 10) continue;  // reserved, never written
    const std::string name = to_string(static_cast<JournalKind>(k));
    EXPECT_NE(name, "unknown") << k;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(EventTraceExport, EmptyTrace) {
  const Journal journal;
  EXPECT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(exported(journal),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[],"
            "\"otherData\":{\"total_recorded\":0,\"total_dropped\":0}}");
}

TEST(EventTraceExport, SingleEventRoundTripsAllFields) {
  Journal journal;
  journal.record(3, JournalKind::kCutOut, slots_to_ticks(50), /*arg=*/4,
                 /*value=*/7);
  const std::string json = exported(journal);
  EXPECT_NE(json.find("\"total_recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cut-out\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":50"), std::string::npos);  // 1 slot = 1 us
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"arg\":4"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
}

TEST(EventTraceExport, ClearResetsDropCount) {
  Journal journal(2);
  for (int i = 0; i < 5; ++i) journal.record(0, JournalKind::kSatLost, i);
  EXPECT_EQ(journal.total_dropped(), 3u);
  journal.clear();
  EXPECT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(exported(journal),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[],"
            "\"otherData\":{\"total_recorded\":0,\"total_dropped\":0}}");
}

}  // namespace
}  // namespace wrt::telemetry
