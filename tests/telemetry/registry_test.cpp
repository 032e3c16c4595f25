#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace wrt::telemetry {
namespace {

// The registry is process-global; every test starts from zero so ordering
// between tests (and the journal/exporter suites in this binary) never leaks.
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricRegistry::instance().reset(); }
};

TEST_F(RegistryTest, CountersStartAtZeroAndAccumulate) {
  auto& reg = MetricRegistry::instance();
  EXPECT_EQ(reg.counter(CounterId::kSatHandoffs), 0u);
  reg.count(CounterId::kSatHandoffs);
  reg.count(CounterId::kSatHandoffs, 41);
  EXPECT_EQ(reg.counter(CounterId::kSatHandoffs), 42u);
  EXPECT_EQ(reg.counter(CounterId::kSatArrivals), 0u);  // untouched slot
}

TEST_F(RegistryTest, ResetZeroesEverything) {
  auto& reg = MetricRegistry::instance();
  reg.count(CounterId::kDeliveries, 7);
  reg.observe(HistogramId::kQueueDepth, 3.0);
  reg.reset();
  EXPECT_EQ(reg.counter(CounterId::kDeliveries), 0u);
  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histogram(HistogramId::kQueueDepth).total, 0u);
  EXPECT_DOUBLE_EQ(snap.histogram(HistogramId::kQueueDepth).sum, 0.0);
}

TEST_F(RegistryTest, SnapshotNamesEveryMetric) {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  ASSERT_EQ(snap.counters.size(), kCounterCount);
  ASSERT_EQ(snap.histograms.size(), kHistogramCount);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name, "unknown");
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(value, 0u);
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name, "unknown");
    EXPECT_GT(h.layout.bucket_count, 0u);
    EXPECT_LE(h.layout.bucket_count, MetricRegistry::kMaxBuckets);
    EXPECT_EQ(h.buckets.size(), h.layout.bucket_count + 1);  // + overflow
  }
}

TEST_F(RegistryTest, ObservePlacesValuesInLinearBuckets) {
  auto& reg = MetricRegistry::instance();
  // kSatRotationSlots: 64 buckets of width 16 from 0.
  reg.observe(HistogramId::kSatRotationSlots, 0.0);    // bucket 0
  reg.observe(HistogramId::kSatRotationSlots, 15.9);   // bucket 0
  reg.observe(HistogramId::kSatRotationSlots, 16.0);   // bucket 1
  reg.observe(HistogramId::kSatRotationSlots, 100.0);  // bucket 6
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 4u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[6], 1u);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_NEAR(h.mean(), (0.0 + 15.9 + 16.0 + 100.0) / 4.0, 0.01);
}

TEST_F(RegistryTest, ObserveRoutesUnderflowAndOverflow) {
  auto& reg = MetricRegistry::instance();
  const HistogramLayout layout =
      histogram_layout(HistogramId::kQueueDepth);  // 64 x 2.0 from 0
  const double top = layout.lo +
                     layout.width * static_cast<double>(layout.bucket_count);
  reg.observe(HistogramId::kQueueDepth, layout.lo - 1.0);  // underflow
  reg.observe(HistogramId::kQueueDepth, top);              // first past the end
  reg.observe(HistogramId::kQueueDepth, top * 100.0);      // far overflow
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(h.total, 3u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.buckets[layout.bucket_count], 2u);  // overflow slot
}

TEST_F(RegistryTest, QuantileReturnsBucketLowerEdge) {
  auto& reg = MetricRegistry::instance();
  // 90 fast rotations, 10 slow ones: p50 sits in the fast bucket, p99 in
  // the slow one.
  for (int i = 0; i < 90; ++i) {
    reg.observe(HistogramId::kSatRotationSlots, 20.0);  // bucket 1 -> edge 16
  }
  for (int i = 0; i < 10; ++i) {
    reg.observe(HistogramId::kSatRotationSlots, 200.0);  // bucket 12 -> 192
  }
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 192.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 192.0);
}

TEST_F(RegistryTest, QuantileOfEmptyHistogramIsZero) {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  const auto& h = snap.histogram(HistogramId::kJoinLatencySlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST_F(RegistryTest, ConcurrentCountsAreLossless) {
  // The monitoring contract: totals are exact once writers quiesce, even
  // with every thread hammering the same counter and histogram.
  auto& reg = MetricRegistry::instance();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.count(CounterId::kSlotsStepped);
        reg.observe(HistogramId::kQueueDepth, 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter(CounterId::kSlotsStepped),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.snapshot().histogram(HistogramId::kQueueDepth).total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#if WRT_TELEMETRY_LEVEL

TEST_F(RegistryTest, MacrosHitTheRegistry) {
  WRT_OBSERVE(kSatRecSlots, 12);
  EXPECT_EQ(MetricRegistry::instance()
                .snapshot()
                .histogram(HistogramId::kSatRecSlots)
                .total,
            1u);
}

#endif  // WRT_TELEMETRY_LEVEL

}  // namespace
}  // namespace wrt::telemetry
