#include "harness.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string_view>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

int Histogram::bucket_of(std::uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  const int msb = 63 - std::countl_zero(value);  // >= 4
  const int shift = msb - 4;
  const auto sub = static_cast<int>((value >> shift) & (kSub - 1));
  return (shift + 1) * kSub + sub;
}

double Histogram::bucket_mid(int bucket) {
  if (bucket < kSub) return bucket;
  const int shift = bucket / kSub - 1;
  const int sub = bucket % kSub;
  const double low = std::ldexp(static_cast<double>(kSub + sub), shift);
  return low + std::ldexp(0.5, shift);
}

void Histogram::add(std::uint64_t value) {
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= target) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

double Metrics::value(const std::string& name) const {
  const Metric* metric = find(name);
  return metric == nullptr ? 0.0 : metric->value;
}

namespace {

double status_field_mb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_field_mb("VmRSS:"); }
double peak_rss_mb() { return status_field_mb("VmHWM:"); }

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  const std::int32_t parent =
      tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back({name, now_ns(), 0, parent});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::vector<std::pair<std::string, std::pair<double, double>>>
Tracer::time_by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::pair<double, double>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    auto& entry = by_name[spans_[i].name];
    entry.first += static_cast<double>(total) / 1e6;
    entry.second += static_cast<double>(total - child_ns[i]) / 1e6;
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}",
                 i == 0 ? "" : ",\n", span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
