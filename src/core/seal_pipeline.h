#ifndef LSS_CORE_SEAL_PIPELINE_H_
#define LSS_CORE_SEAL_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/config.h"
#include "core/io_backend.h"
#include "core/stats.h"
#include "core/types.h"

namespace lss {

/// The one path from a shard to its backend. Every durable operation
/// the shard emits becomes an Op and goes through Submit; Apply is the
/// only place that calls the backend's mutating hooks (Sync aside) and
/// bumps the checkpoint counters.
///
/// Sync mode (StoreConfig::async_seal off). Submit runs Apply inline on
/// the caller's thread: no lock, no I/O thread, no stats copy, and the
/// backend keeps its per-op fsync. An op is applied (and durable, as
/// far as the backend promises) when Submit returns, so its ticket is 0.
///
/// Async mode. Submit hands the op to a bounded queue drained by one
/// I/O thread, so a writer hands off a sealed-in-memory segment and
/// continues while the payload write, metadata append and fsync happen
/// off the write path.
///
/// Ordering. Ops apply strictly in submission order. That carries the
/// shard's crash-ordering invariant — a victim's free record is emitted
/// only after the seals/checkpoints holding its relocated pages — from
/// call order into queue order, so the backend observes exactly the
/// operation sequence a synchronous shard would have produced.
///
/// Group commit. In async mode the backend runs in deferred-sync mode
/// (SegmentBackend::SetDeferredSync) and the I/O thread calls Sync()
/// once per drained batch: one fsync pair covers every seal, checkpoint
/// and delete queued since the last — classic group commit. With
/// backend_fsync off the Sync() is a metadata no-op but still releases
/// deferred hole punches.
///
/// applied_ advances only once the batch is fully durable, so a
/// waited-on seal's bytes are on the device, readable by the concurrent
/// ReadPagePayload path.
///
/// Threading. Submit / WaitApplied / Drain / Barrier / Shutdown are
/// called by the shard's owner thread (under the shard lock in a
/// ShardedStore); the I/O thread touches only the backend, the queue,
/// and its own stats block — never shard state — so it takes no shard
/// lock and cannot deadlock against one. A backend failure on the I/O
/// thread is sticky and surfaces on the next Submit / WaitApplied /
/// Shutdown, the way an asynchronous group commit acknowledges errors
/// late.
class SealPipeline {
 public:
  struct Op {
    enum class Kind : uint8_t { kSeal, kCheckpoint, kCheckpointDelta,
                                kReclaim, kDelete, kRehome };
    Kind kind = Kind::kSeal;
    /// kSeal / kCheckpoint / kCheckpointDelta / kRehome: the full
    /// durable record (for kCheckpointDelta only the suffix entries and
    /// range; for kRehome the backend writes metadata only and syncs
    /// internally — the record must be durable before the shard's next
    /// seal of the reused slot, which queue order alone would not
    /// guarantee within a group-commit batch).
    BackendSegmentRecord record;
    /// kReclaim: the freed segment.
    SegmentId segment = kInvalidSegment;
    /// kDelete: the tombstoned page and its append sequence.
    PageId page = kInvalidPage;
    uint64_t seq = 0;
    /// kReclaim / kDelete: shard clock at emission.
    UpdateCount unow = 0;
  };

  /// `backend` and `shard_stats` must outlive the pipeline. In sync mode
  /// `shard_stats` receives the backend's device_* counters and the
  /// checkpoint counters; in async mode those land in pipeline-owned
  /// storage (the I/O thread updates them) and `shard_stats` receives
  /// only the producer-side queue counters. Between Start() and
  /// Shutdown() of an async pipeline the I/O thread owns every mutating
  /// backend call; concurrent ReadPagePayload from the shard's thread is
  /// allowed (reads are stateless on all backends).
  SealPipeline(SegmentBackend* backend, const StoreConfig& config,
               StoreStats* shard_stats);
  ~SealPipeline();

  SealPipeline(const SealPipeline&) = delete;
  SealPipeline& operator=(const SealPipeline&) = delete;

  /// Async mode: switches the backend to deferred sync and starts the
  /// I/O thread. Call after SegmentBackend::Open (and Scan, when
  /// recovering). A no-op in sync mode.
  void Start();

  /// Applies `op` (sync mode; `*ticket` = 0) or queues it, blocking
  /// while the queue is full (async mode; backpressure, counted in
  /// seal_queue_stalls; `*ticket` = the op's 1-based ticket). Returns
  /// the backend's error (sync), or the sticky error / a stopped-
  /// pipeline error when the op was not queued (async).
  Status Submit(Op op, uint64_t* ticket = nullptr);

  /// Last ticket fully applied (and covered by a group sync); 0 in sync
  /// mode, where every op is applied at submission.
  uint64_t applied_ticket() const;

  /// Blocks until `ticket` has been applied and synced; returns the
  /// sticky error if the pipeline died instead. Ticket 0 (applied at
  /// submission, or nothing pending) returns OK at once.
  Status WaitApplied(uint64_t ticket) const;

  /// Waits for every op submitted so far. Emits nothing itself.
  Status Drain();

  /// Durability barrier: on return every submitted op is durable. Async
  /// mode drains the queue (each batch ends in a group Sync); sync mode
  /// calls the backend's Sync once.
  Status Barrier();

  /// Drains the queue, stops and joins the I/O thread. Idempotent;
  /// Submit is rejected afterwards. Returns the sticky error.
  Status Shutdown();

  /// The sticky backend error of the I/O thread (always OK in sync
  /// mode, where Submit returns errors directly).
  Status error() const;

  /// Stats sink to hand to SegmentBackend::Open: `shard_stats` in sync
  /// mode, the I/O thread's own block in async mode.
  StoreStats* backend_stats() { return async_ ? &io_stats_ : shard_stats_; }

  /// Thread-safe snapshot of the I/O thread's counters (device_* plus
  /// the group-fsync and checkpoint counters), published once per
  /// batch. All zero in sync mode, where they live in `shard_stats`.
  StoreStats StatsSnapshot() const;

  /// Drains the pipeline, then zeroes the I/O thread's counters (the
  /// drain makes the zeroing race-free: an idle I/O thread does not
  /// touch its stats). Returns the sticky error if draining failed.
  Status ResetStats();

 private:
  // Applies one op to the backend, counting checkpoint records into
  // backend_stats().
  Status Apply(const Op& op);
  void ThreadMain();

  SegmentBackend* backend_;
  const bool async_;
  const uint32_t queue_depth_;
  const bool count_fsyncs_;
  StoreStats* const shard_stats_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes the I/O thread
  mutable std::condition_variable done_cv_;  // wakes producers and waiters
  std::deque<Op> queue_;
  uint64_t enqueued_ = 0;  // tickets handed out
  uint64_t applied_ = 0;   // tickets applied (+synced); == enqueued_ when idle
  bool stop_ = false;
  bool started_ = false;
  Status error_;
  std::thread thread_;

  /// Async mode: written by the I/O thread (and by SegmentBackend::Open
  /// before Start); published to published_stats_ under stats_mu_ after
  /// each batch so snapshots never race the backend.
  StoreStats io_stats_;
  mutable std::mutex stats_mu_;
  StoreStats published_stats_;
};

}  // namespace lss

#endif  // LSS_CORE_SEAL_PIPELINE_H_
