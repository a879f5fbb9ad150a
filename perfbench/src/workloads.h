// The benchmark's three closed-loop workloads, driven through the
// library's public API only: ShardedStore, MakePolicy/ApplyVariantConfig,
// the workload generators, MakeBackend and TpccDb.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

/// Names accepted by RunWorkload, in the order the notes describe them.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window. Ignored when ops_per_client > 0.
  double seconds = 10.0;
  /// Install the tracing decorators and record spans in the window.
  bool traced = false;
  /// Writable directory for the durable-rw files and the span dump.
  std::string dir;
  /// Set-ups to run; setup_s is their median and the last one is
  /// measured.
  uint32_t setup_reps = 1;

  // Sizing overrides for the benchmark's own tests; 0 keeps the
  // workload's default.
  uint64_t ops_per_client = 0;  // fixed op count instead of a timed window
  uint32_t clients = 0;
  uint32_t segments = 0;
  uint64_t warmup_ops = 0;
};

struct RunOutcome {
  bool correct = true;
  std::vector<std::string> errors;  // one line per failed gate
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double ops_per_s = 0.0;  // client operations per second
  /// Every metric the run measured. Every workload reports every name,
  /// with 0 where its layer did no work; span-derived layer metrics are
  /// 0 unless traced.
  Report report;
};

RunOutcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
