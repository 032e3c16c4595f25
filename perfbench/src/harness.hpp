// Measurement scaffolding shared by every perfbench workload: host clocks,
// a log-bucketed latency histogram, exact quantiles over small samples,
// named metric lists, process memory probes, an FNV-1a digest, and the
// span recorder used by the traced run.
//
// Everything here times the simulator from the outside: spans and
// histograms wrap calls into the library's public API and never reach
// inside it.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of an unsorted sample (copy is sorted); 0 when
/// the sample is empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Log-linear histogram of non-negative integer durations (16 sub-buckets
/// per power of two, so a quantile is within ~6% of the exact value).
/// Constant memory however many samples it holds.
class Histogram {
 public:
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;
  static int bucket_of(std::uint64_t value);
  static double bucket_mid(int bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered list of named metrics; set() replaces an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Resident set size now and at its high-water mark, in MB
/// (/proc/self/status VmRSS / VmHWM); 0 where unavailable.
double rss_mb();
double peak_rss_mb();

/// FNV-1a over 64-bit words: the simulation digest.
class Digest {
 public:
  void add(std::uint64_t word);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One span of the traced run: a named host-time interval with the span
/// that was open when it began (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// In-memory span recorder.  A disabled tracer records nothing and reads
/// no clock, so untraced code paths pay one branch per scope.  Spans are
/// written out (Chrome trace_event JSON) only when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Per span name: (total ms, self ms), where self time is a span's
  /// duration minus the part its child spans cover.
  [[nodiscard]] std::vector<std::pair<std::string, std::pair<double, double>>>
  time_by_name() const;

  /// Writes every span as Chrome trace_event "X" events; false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
