#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr uint64_t kExact = 1024;       // values below are exact
constexpr uint64_t kSubBuckets = 128;   // per power of two above
constexpr uint64_t kMaxNs = (1ull << 40) - 1;
constexpr size_t kBuckets = kExact + 30 * kSubBuckets;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

size_t LatencyHistogram::Index(uint64_t ns) {
  ns = std::min(ns, kMaxNs);
  if (ns < kExact) return static_cast<size_t>(ns);
  const int msb = 63 - __builtin_clzll(ns);  // 10..39
  const int shift = msb - 7;                 // leaves 8 significant bits
  return static_cast<size_t>(kExact + (msb - 10) * kSubBuckets +
                             ((ns >> shift) - kSubBuckets));
}

uint64_t LatencyHistogram::ValueAt(size_t index) {
  if (index < kExact) return index;
  const uint64_t k = index - kExact;
  return (k % kSubBuckets + kSubBuckets) << (k / kSubBuckets + 3);
}

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[Index(ns)];
  ++count_;
  sum_ += ns;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t LatencyHistogram::NearestRank(double q) const {
  if (count_ == 0) return 0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return ValueAt(i);
  }
  return ValueAt(kBuckets - 1);
}

LatencySummary Summarize(const LatencyHistogram& h) {
  LatencySummary s;
  s.samples = h.count();
  if (s.samples == 0) return s;
  s.p50_us = h.NearestRank(0.50) / 1e3;
  s.p99_us = h.NearestRank(0.99) / 1e3;
  s.p999_us = h.NearestRank(0.999) / 1e3;
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (Find(name) != nullptr) {
    throw std::logic_error("metric reported twice: " + name);
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::ToJson() const {
  std::string out = "{";
  char buf[160];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", m.name.c_str(), v);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"unit\": \"%s\", \"samples\": %llu}",
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    out += buf;
  }
  return out + "}";
}

}  // namespace perfbench
