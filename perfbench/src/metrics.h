// Latency histograms and the named-metric report the driver prints.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanosecond latency histogram with fixed memory: exact below 1024 ns,
/// then 128 buckets per power of two (values read low by under 0.8%).
/// Its size does not grow with the run, so run length does not show in
/// the process's peak memory.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  /// Sum of the recorded values, exact.
  uint64_t sum_ns() const { return sum_; }

  /// Nearest-rank q-quantile (0 < q <= 1): the smallest bucket value with
  /// at least ceil(q * count) samples at or below it. 0 when empty.
  uint64_t NearestRank(double q) const;

 private:
  static size_t Index(uint64_t ns);
  static uint64_t ValueAt(size_t index);  // lowest value of the bucket

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Percentiles of a histogram, in microseconds, and how many samples
/// they were taken over.
struct LatencySummary {
  uint64_t samples = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

LatencySummary Summarize(const LatencyHistogram& h);

/// Median of a small set of values (mean of the middle two when even).
double Median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 for counts and ratios
};

/// Ordered metric list; names are unique.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One JSON object {"name": {"value": v, "unit": u, "samples": n}, ...}.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
