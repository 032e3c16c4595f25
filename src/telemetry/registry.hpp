// Process-wide metric registry.
//
// One fixed-size block of cache-line-padded relaxed atomics, shared by every
// engine in the process.  Parallel replications (sim::run_replications) all
// write the same registry concurrently; padding keeps their counters from
// false-sharing, relaxed ordering keeps an increment a single uncontended
// `lock add`.  Snapshots are advisory (taken while writers run), which is
// the standard contract for monitoring counters: totals are exact once
// writers quiesce, momentarily skewed while they don't.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/thread_safety.hpp"

namespace wrt::telemetry {

class TelemetryBatch;

/// Fixed-point scale for histogram running sums: atomic doubles would need
/// a CAS loop, a 1/1024th-scaled integer keeps the hot path to one add.
inline constexpr double kSumScale = 1024.0;

/// Point-in-time copy of every counter and histogram; what the exporters
/// and the periodic snapshotter consume.
struct RegistrySnapshot {
  struct HistogramData {
    std::string name;
    HistogramLayout layout;
    std::vector<std::uint64_t> buckets;  ///< bucket_count + 1 (overflow last)
    std::uint64_t underflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;  ///< sum of observed values (mean = sum / total)

    [[nodiscard]] double mean() const noexcept {
      return total == 0 ? 0.0 : sum / static_cast<double>(total);
    }
    /// Quantile estimate: lower edge of the bucket holding rank q*total.
    [[nodiscard]] double quantile(double q) const noexcept;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramData> histograms;

  [[nodiscard]] std::uint64_t counter(CounterId id) const {
    return counters[static_cast<std::size_t>(id)].second;
  }
  [[nodiscard]] const HistogramData& histogram(HistogramId id) const {
    return histograms[static_cast<std::size_t>(id)];
  }
};

// The registry is the one sanctioned piece of cross-shard mutable state:
// every worker thread (replication workers today, federation shards
// tomorrow) writes it concurrently.  Each field is therefore an atomic, a
// lock, or annotated with the lock that guards it — enforced by wrt_lint's
// `unguarded-shared-field` rule via the registrations below and by Clang's
// `-Wthread-safety` on the annotations themselves.
//
// wrt-lint-shared-type(MetricRegistry): written concurrently by every shard
// wrt-lint-shared-type(PaddedCounter): element of the registry counter block
// wrt-lint-shared-type(PaddedHistogram): element of the registry histogram block
class MetricRegistry {
 public:
  /// Largest bucket_count any HistogramLayout may declare.
  static constexpr std::uint32_t kMaxBuckets = 64;

  [[nodiscard]] static MetricRegistry& instance() noexcept {
    // wrt-lint-allow(mutable-global-state): the one sanctioned cross-shard sink (every field atomic or lock-guarded)
    static MetricRegistry registry;
    return registry;
  }

  /// One relaxed fetch_add on a padded slot (TelemetryBatch::flush and the
  /// snapshot timeline are the writers).
  void count(CounterId id, std::uint64_t by = 1) noexcept {
    counters_[static_cast<std::size_t>(id)].value.fetch_add(
        by, std::memory_order_relaxed);
  }

  /// The WRT_OBSERVE hot path: bucket index + one relaxed fetch_add (plus
  /// a relaxed sum update so snapshots can report means).
  void observe(HistogramId id, double value) noexcept;

  /// Bulk merge of locally staged histogram state (TelemetryBatch::flush):
  /// one fetch_add per *touched* bucket rather than per observation.
  void merge_histogram(HistogramId id, const std::uint64_t* buckets,
                       std::size_t bucket_count, std::uint64_t underflow,
                       std::int64_t sum_scaled) noexcept;

  [[nodiscard]] std::uint64_t counter(CounterId id) const noexcept {
    return counters_[static_cast<std::size_t>(id)].value.load(
        std::memory_order_relaxed);
  }

  /// Copies every metric out (advisory while writers run).  Registered
  /// flush sources are drained first, so totals include everything an
  /// engine has counted but not yet published (see add_flush_source).
  [[nodiscard]] RegistrySnapshot snapshot() const
      WRT_EXCLUDES(sources_mutex_);

  /// Registers a batch to be drained by every snapshot(); every
  /// TelemetryBatch does so for its lifetime.  An engine driven by bare
  /// step() calls flushes its batch only every kTelemetryFlushSlots slots;
  /// without this hook a snapshot taken between flushes under-reports by
  /// up to one flush interval.  Contract: no thread may take a snapshot()
  /// while engines run on other threads (the drain would race their
  /// counter and batch writes; see DESIGN.md "Concurrency model").
  void add_flush_source(TelemetryBatch* batch) WRT_EXCLUDES(sources_mutex_);

  void remove_flush_source(TelemetryBatch* batch) noexcept
      WRT_EXCLUDES(sources_mutex_);

  /// Zeroes everything.  For tests and bench isolation only — production
  /// consumers difference successive snapshots instead.
  void reset() noexcept;

 private:
  MetricRegistry() = default;

  // One cache line per counter: replication threads hammer disjoint lines.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };

  /// Histogram over linear buckets; bucket bucket_count is the overflow.
  /// No running total: every observation lands in exactly one of
  /// underflow/buckets, so snapshot() derives the total by summation and
  /// the hot path stays at two relaxed fetch_adds (sum + bucket).
  struct PaddedHistogram {
    alignas(64) std::atomic<std::uint64_t> underflow{0};
    /// Sum of observations, in fixed-point 1/1024ths (atomic doubles need a
    /// CAS loop; a scaled integer keeps the hot path to one fetch_add).
    std::atomic<std::int64_t> sum_scaled{0};
    /// kMaxBuckets linear buckets + 1 overflow slot.
    std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets{};
  };

  std::array<PaddedCounter, kCounterCount> counters_{};
  std::array<PaddedHistogram, kHistogramCount> histograms_{};
  // Flush-source list: cold (mutated on engine construction/destruction,
  // walked per snapshot), so a mutex-guarded vector is plenty.  mutable
  // because snapshot() is logically const but must drain the sources.
  mutable util::Mutex sources_mutex_;
  mutable std::vector<TelemetryBatch*> sources_ WRT_GUARDED_BY(sources_mutex_);
};

/// One engine's link to the process-wide registry.  Counters are not
/// staged here: the engine counts each protocol event once, in its own
/// stats, and publish() registers each running total once, at
/// construction.  flush() adds every total's growth since the previous
/// flush to the registry, so the registry can never disagree with the
/// owner.  Histograms cannot be derived that way (the owners keep sample
/// reservoirs, not buckets), so observe() still stages them as plain
/// integer bumps and flush() merges one fetch_add per touched bucket.
///
/// Registry totals therefore lag a live engine by at most one flush
/// interval; Engine::run_slots flushes on return, the batch flushes on
/// destruction and every snapshot() drains it, so totals are exact
/// whenever a driving loop has handed control back.
///
/// Shard-confined: exactly one thread (the owning engine's) may touch a
/// batch.  flush() publishes through atomics, so concurrent batches on
/// different threads are safe; one batch on two threads is not.
class WRT_SHARD_CONFINED TelemetryBatch {
 public:
  /// Reads an owner's running total.
  using Total = std::function<std::uint64_t()>;

  TelemetryBatch() { MetricRegistry::instance().add_flush_source(this); }
  TelemetryBatch(const TelemetryBatch&) = delete;
  TelemetryBatch& operator=(const TelemetryBatch&) = delete;
  ~TelemetryBatch() {
    MetricRegistry::instance().remove_flush_source(this);
    flush();
  }

  /// Publishes `total` as counter `id`.  The field must outlive the batch.
  void publish(CounterId id, const std::uint64_t& total) {
    publish(id, [&total] { return total; });
  }
  /// Publishes a total derived from owner state (a clock, a sum of fields).
  void publish(CounterId id, Total total) {
    Counter& counter = counters_[static_cast<std::size_t>(id)];
    counter.total = std::move(total);
    counter.published = counter.total();
  }

  void observe(HistogramId id, double value) noexcept {
    const HistogramLayout layout = histogram_layout(id);
    Histogram& h = histograms_[static_cast<std::size_t>(id)];
    h.touched = true;
    h.sum_scaled += static_cast<std::int64_t>(value * kSumScale);
    if (value < layout.lo) {
      ++h.underflow;
      return;
    }
    const double offset = (value - layout.lo) / layout.width;
    const std::size_t bucket =
        offset >= static_cast<double>(layout.bucket_count)
            ? layout.bucket_count  // overflow bucket
            : static_cast<std::size_t>(offset);
    ++h.buckets[bucket];
  }

  /// Publishes every counter's growth and every staged histogram sample to
  /// MetricRegistry::instance(), then zeroes the histogram staging.
  void flush() noexcept;

 private:
  struct Counter {
    Total total;                  ///< empty: nobody publishes this id
    std::uint64_t published = 0;  ///< value of total() at the last flush
  };
  struct Histogram {
    std::int64_t sum_scaled = 0;
    std::uint64_t underflow = 0;
    bool touched = false;
    std::array<std::uint64_t, MetricRegistry::kMaxBuckets + 1> buckets{};
  };

  std::array<Counter, kCounterCount> counters_{};
  std::array<Histogram, kHistogramCount> histograms_{};
};

}  // namespace wrt::telemetry
