#ifndef LSS_WORKLOAD_RUNNER_H_
#define LSS_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace lss {

/// Parameters of one simulation run, mirroring the paper's methodology
/// (§6.2): fill the store, run updates until write amplification
/// stabilises, then measure.
struct RunSpec {
  /// User-visible pages / physical pages (paper's F).
  double fill_factor = 0.8;
  /// Warm-up updates, as a multiple of the user page count.
  double warmup_multiplier = 6.0;
  /// Measured updates, as a multiple of the user page count.
  double measure_multiplier = 12.0;
  uint64_t seed = 42;
};

/// Outcome of a run. `stats` is the measured window's StoreStats,
/// merged across the store's shards: every counter is read from there
/// (r.stats.device_fsyncs, r.stats.user_updates, ...), so a new counter
/// needs no field here. The other members are what StoreStats does not
/// hold: derived ratios, the store's final fill, and the run's shape and
/// timing.
struct RunResult {
  Status status;
  /// Paper figure label of the variant.
  std::string variant;
  /// Measured counters, merged across shards (zero when status fails).
  StoreStats stats;
  /// Measured write amplification (Equation 2).
  double wamp = 0.0;
  /// Mean segment emptiness at clean time during measurement.
  double mean_clean_emptiness = 0.0;
  /// Live-bytes / device-bytes at the end (should track fill_factor).
  double effective_fill = 0.0;

  // --- Run shape and timing --------------------------------------------

  /// Client threads (trace replay: one per shard) and store shards.
  uint32_t threads = 0;
  uint32_t shards = 0;
  /// Wall-clock seconds spent in the measurement phase.
  double measure_seconds = 0.0;
  /// Measured logical updates per wall-clock second across all threads.
  double updates_per_second = 0.0;
  /// Per-shard measured write amplification, indexed by shard id.
  std::vector<double> shard_wamp;
};

/// Builds a ShardedStore for `variant` (applying its placement
/// conventions to `config`) with `shards` shards (0 means one per
/// thread), installs the generator's exact-frequency oracle when the
/// variant needs one, and runs load -> warm-up -> measure with `threads`
/// worker threads drawing updates from `workload`. The store is destroyed
/// on return.
///
/// Each thread draws from its own deterministic RNG stream; thread 0 uses
/// `spec.seed` unchanged. With one thread the workers run inline on the
/// caller's thread, so a 1-thread, 1-shard run is the paper's
/// single-threaded simulator (§6.1.1) and fully deterministic; the golden
/// pins in the tests hold it to fixed counters. The measurement phase is
/// timed, giving the throughput numbers bench/scale_threads.cc sweeps.
RunResult RunSynthetic(const StoreConfig& config, Variant variant,
                       const WorkloadGenerator& workload, const RunSpec& spec,
                       uint32_t threads = 1, uint32_t shards = 0);

/// Replays `trace` through a ShardedStore with `shards` shards, one
/// replay thread per shard (ReplayTraceParallel). Records before
/// `measure_from` (e.g. the population phase) run as warm-up; measurement
/// covers [measure_from, end). When the variant needs an oracle the
/// frequencies are pre-analysed from the measured suffix of the trace, as
/// the paper does for TPC-C (§6.3). `config` supplies the device geometry
/// (choose num_segments to hit the desired fill factor). `presplit` is
/// an optional SplitTrace of `trace` to reuse across replays.
RunResult RunTrace(const StoreConfig& config, Variant variant,
                   const Trace& trace, size_t measure_from,
                   uint32_t shards = 1,
                   const ShardedTrace* presplit = nullptr);

/// The replay engine under RunTrace, operating on a caller-created store
/// (which the caller can then inspect). Each shard's replay thread
/// streams the subsequence of records PageShard routes to that shard, in
/// trace order; since a page maps to exactly one shard, per-page
/// operation order is preserved, and a shard's state evolution depends
/// only on its own subsequence. So a parallel replay produces bit for bit
/// the per-shard stats and final page states of a serial replay of the
/// same trace through an equally-sharded store (the determinism test pins
/// this).
///
/// The subsequences come from `presplit` when its shard count matches the
/// store's; otherwise the trace is split here (SplitTrace). A 1-shard
/// store replays `trace`'s own records, on the caller's thread. A barrier
/// at the measurement boundary lets every shard finish its warm-up
/// records; then each shard resets its counters and applies its measured
/// suffix. `measure_seconds_out` (optional) receives the wall-clock time
/// from that barrier to the last shard finishing. Returns the first store
/// error.
Status ReplayTraceParallel(ShardedStore* store, const Trace& trace,
                           size_t measure_from,
                           double* measure_seconds_out = nullptr,
                           const ShardedTrace* presplit = nullptr);

/// Convenience: a StoreConfig scaled so that `user_pages` occupy fill
/// factor `f` of the device, with trigger/batch/buffer kept at the
/// bench defaults (segment_bytes/page_bytes from `base`).
StoreConfig ScaleConfigForFill(const StoreConfig& base, uint64_t user_pages,
                               double f);

}  // namespace lss

#endif  // LSS_WORKLOAD_RUNNER_H_
