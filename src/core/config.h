#ifndef LSS_CORE_CONFIG_H_
#define LSS_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "core/types.h"

namespace lss {

/// Which persistence backend a store runs its segments on (see
/// core/io_backend.h). kNull is the paper's simulator: segment writes
/// are counted but never performed. kFile gives every shard its own
/// segment file pair so write-amplification predictions can be compared
/// against real device traffic, and lets a store survive process
/// restart (ShardedStore::Open).
enum class BackendKind : uint8_t {
  kNull,
  kFile,
};

/// Configuration of a store. ShardedStore treats num_segments and
/// clean_trigger_segments as device-wide budgets and divides both among
/// its shards (the trigger with a floor of 1); every other field,
/// clean_batch_segments and write_buffer_segments included, applies to
/// each shard.
///
/// Paper defaults (§6.1.1): 4 KB pages, 2 MB segments (512 pages), 100 GB
/// device (51 200 segments), cleaning triggered when the free pool drops
/// below 32 segments, 64 victims per cleaning cycle. Our defaults are a
/// scaled-down device (the paper notes device size does not affect write
/// amplification); the trigger/batch keep roughly the same *fraction* of
/// the device. Benches override these per experiment.
struct StoreConfig {
  /// Segment capacity B in bytes (paper §5.1.2).
  uint32_t segment_bytes = 1u << 20;
  /// Default page size; Write() may pass a different per-page size, the
  /// store supports variable-size pages (paper §4.4).
  uint32_t page_bytes = 4096;
  /// Number of physical segments on the device.
  uint32_t num_segments = 512;
  /// Cleaning starts when the free pool falls below this many segments
  /// (device-wide: each of N shards gets max(1, trigger / N)).
  uint32_t clean_trigger_segments = 8;
  /// Victim segments examined per cleaning cycle (paper cleans 64 at a
  /// time; batching "enables more effective separation of pages by update
  /// frequency", §6.1.1).
  uint32_t clean_batch_segments = 16;
  /// User write sort-buffer capacity in segments (Figure 4). 0 disables
  /// buffering: user writes append directly in arrival order.
  uint32_t write_buffer_segments = 4;
  /// Sort buffered user writes by estimated update frequency before
  /// packing them into segments (paper §5.3). Turned off by the
  /// MDC-no-sep-user / MDC-no-sep-user-GC ablations (Figure 3).
  bool separate_user_writes = true;
  /// Sort garbage-collected live pages by estimated update frequency
  /// before re-packing (§5.3). Turned off by MDC-no-sep-user-GC.
  bool separate_gc_writes = true;
  /// When true, GC'd pages are re-inserted through the same placement
  /// stream as user writes (multi-log semantics) rather than into
  /// dedicated GC output segments.
  bool gc_shares_user_stream = false;

  /// Persistence backend for sealed segments. The default keeps the
  /// simulator bookkeeping-only; kFile performs real pwrite/fsync I/O.
  BackendKind backend = BackendKind::kNull;
  /// Directory holding the per-shard segment files (kFile only). Must
  /// exist and be writable.
  std::string backend_dir;
  /// fsync data + metadata after each segment seal (kFile only). Off
  /// trades durability for speed, like a drive write cache.
  bool backend_fsync = true;
  /// Run segment seals asynchronously: the shard's SealPipeline applies
  /// sealed-in-memory segments (and reclaims, deletes, checkpoints) on a
  /// per-shard I/O thread fed by a bounded queue, so device latency
  /// leaves the write path; fsyncs are group-committed (one fsync covers
  /// every operation queued since the last). Off, the pipeline applies
  /// each op inline on the writer's thread with a per-op fsync. The
  /// backend sees the same calls in the same order either way (pinned by
  /// the determinism tests) — only when I/O happens changes.
  bool async_seal = false;
  /// Capacity of the per-shard seal queue in operations (async_seal
  /// only). Writers block (backpressure, counted in
  /// StoreStats::seal_queue_stalls) when the queue is full.
  uint32_t seal_queue_depth = 16;
  /// Persist partially-filled open segments with a checkpoint record
  /// every N backend operations (0 disables). Checkpoints are replayed
  /// as an entry prefix on recovery, bounding how many acknowledged
  /// writes an open segment can lose to a crash — and they close the
  /// residual PR 3 crash window: a victim's free record forced out by a
  /// slot reseal is now always preceded by checkpoints of the open
  /// segments holding its relocated pages.
  uint32_t checkpoint_interval_ops = 0;
  /// Emit suffix-only delta checkpoints when a slot already has a
  /// durable checkpoint of the same fill generation: the round rewrites
  /// only the payload appended since the durable watermark, recorded as
  /// a kMetaCheckpointDelta chained to the previous record by ordinal.
  /// Falls back to a full checkpoint whenever the slot generation
  /// changed (reseal/reuse/rehome) or no prior checkpoint exists. Off
  /// re-records the whole payload every round, the pre-delta behaviour.
  bool checkpoint_delta = true;

  /// Total physical page frames of `page_bytes` size.
  uint64_t PhysicalPages() const {
    return static_cast<uint64_t>(num_segments) *
           (segment_bytes / page_bytes);
  }

  /// Pages per segment at the default page size (the paper's S).
  uint32_t PagesPerSegment() const { return segment_bytes / page_bytes; }

  /// Number of user pages giving fill factor `f` (paper §2.1:
  /// F = user-visible size / physical size).
  uint64_t UserPagesForFillFactor(double f) const {
    return static_cast<uint64_t>(f * static_cast<double>(PhysicalPages()));
  }

  /// Checks internal consistency; returns a non-OK status describing the
  /// first problem found.
  Status Validate() const {
    if (segment_bytes == 0 || page_bytes == 0) {
      return Status::InvalidArgument("segment_bytes/page_bytes must be > 0");
    }
    if (page_bytes > segment_bytes) {
      return Status::InvalidArgument("page larger than segment");
    }
    if (segment_bytes % page_bytes != 0) {
      return Status::InvalidArgument(
          "segment_bytes must be a multiple of page_bytes");
    }
    if (num_segments < 4) {
      return Status::InvalidArgument("need at least 4 segments");
    }
    if (clean_trigger_segments < 1) {
      return Status::InvalidArgument("clean_trigger_segments must be >= 1");
    }
    if (clean_batch_segments < 1) {
      return Status::InvalidArgument("clean_batch_segments must be >= 1");
    }
    if (clean_trigger_segments >= num_segments / 2) {
      return Status::InvalidArgument(
          "clean trigger too large for device size");
    }
    if (backend == BackendKind::kFile && backend_dir.empty()) {
      return Status::InvalidArgument("file backend requires backend_dir");
    }
    if (async_seal && seal_queue_depth < 1) {
      return Status::InvalidArgument(
          "async_seal requires seal_queue_depth >= 1");
    }
    return Status::OK();
  }
};

}  // namespace lss

#endif  // LSS_CORE_CONFIG_H_
