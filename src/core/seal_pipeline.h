#ifndef LSS_CORE_SEAL_PIPELINE_H_
#define LSS_CORE_SEAL_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/io_backend.h"
#include "core/stats.h"
#include "core/types.h"

namespace lss {

/// The per-shard async seal pipeline (StoreConfig::async_seal): a bounded
/// queue of backend operations drained by one I/O thread, so a writer
/// hands off a sealed-in-memory segment and continues while the payload
/// write, metadata append and fsync happen off the write path.
///
/// Ordering. Ops apply strictly in enqueue order. That carries the
/// shard's crash-ordering invariant — a victim's free record is emitted
/// only after the seals/checkpoints holding its relocated pages — from
/// call order into queue order, so the backend observes exactly the
/// operation sequence a synchronous shard would have produced.
///
/// Group commit. The backend runs in deferred-sync mode
/// (SegmentBackend::SetDeferredSync) and the I/O thread calls Sync() once
/// per drained batch: one fsync pair covers every seal, checkpoint and
/// delete queued since the last — classic group commit. With
/// backend_fsync off the Sync() is a metadata no-op but still releases
/// deferred hole punches.
///
/// With the uring backend the batch's payload writes are merely
/// *submitted* as ops apply, overlapping with the packing of later ops
/// in the same batch; the batch-end Sync() reaps every completion
/// before fsyncing (UringBackend::SyncBoth). applied_ therefore still
/// advances only once the batch is fully durable, so WaitApplied keeps
/// its meaning — a waited-on seal's bytes are on the device, readable
/// by the concurrent ReadPagePayload path — regardless of backend.
///
/// Threading. Enqueue / WaitApplied / Drain / Shutdown are called by the
/// shard's owner thread (under the shard lock in a ShardedStore); the
/// I/O thread touches only the backend, the queue, and its own stats
/// block — never shard state — so it takes no shard lock and cannot
/// deadlock against one. A backend failure is sticky and surfaces on the
/// next Enqueue / WaitApplied / Shutdown, the way an asynchronous group
/// commit acknowledges errors late.
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

  /// `backend` must outlive the pipeline. Between Start() and Shutdown()
  /// the I/O thread owns every mutating backend call; concurrent
  /// ReadPagePayload from the shard's thread is allowed (reads are
  /// stateless on all backends). `count_fsyncs` mirrors
  /// StoreConfig::backend_fsync and only gates the group-fsync counters.
  SealPipeline(SegmentBackend* backend, uint32_t queue_depth,
               bool count_fsyncs);
  ~SealPipeline();

  SealPipeline(const SealPipeline&) = delete;
  SealPipeline& operator=(const SealPipeline&) = delete;

  /// Switches the backend to deferred sync and starts the I/O thread.
  /// Call after SegmentBackend::Open (and Scan, when recovering).
  void Start();

  /// Hands one op to the I/O thread, blocking while the queue is full
  /// (backpressure; `*stalled` is set when the call had to wait).
  /// Returns the op's 1-based ticket, or 0 when the pipeline carries a
  /// sticky error (read it via error()).
  uint64_t Enqueue(Op op, bool* stalled);

  /// Last ticket fully applied (and covered by a group sync).
  uint64_t applied_ticket() const;

  /// Blocks until `ticket` has been applied and synced; returns the
  /// sticky error if the pipeline died instead.
  Status WaitApplied(uint64_t ticket);

  /// Waits for every op enqueued so far.
  Status Drain();

  /// Drains the queue, stops and joins the I/O thread. Idempotent;
  /// Enqueue is rejected afterwards. Returns the sticky error.
  Status Shutdown();

  /// The sticky backend error (OK while healthy).
  Status error() const;

  /// Stats sink to hand to SegmentBackend::Open: in async mode the
  /// backend's device_* counters must land in pipeline-owned storage
  /// (the I/O thread updates them), not in the shard's StoreStats.
  StoreStats* backend_stats() { return &backend_stats_; }

  /// Thread-safe snapshot of the I/O-side counters (device_* plus the
  /// group-fsync and checkpoint counters), published once per batch.
  StoreStats StatsSnapshot() const;

  /// Drains the pipeline, then zeroes the I/O-side counters (the drain
  /// makes the zeroing race-free: an idle I/O thread does not touch its
  /// stats). Returns the sticky error if draining failed.
  Status ResetStats();

 private:
  void ThreadMain();

  SegmentBackend* backend_;
  const uint32_t queue_depth_;
  const bool count_fsyncs_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes the I/O thread
  std::condition_variable done_cv_;   // wakes producers and waiters
  std::deque<Op> queue_;
  uint64_t enqueued_ = 0;  // tickets handed out
  uint64_t applied_ = 0;   // tickets applied (+synced); == enqueued_ when idle
  bool stop_ = false;
  bool started_ = false;
  Status error_;
  std::thread thread_;

  /// Written by the I/O thread (and by SegmentBackend::Open before
  /// Start); published to published_stats_ under stats_mu_ after each
  /// batch so snapshots never race the backend.
  StoreStats backend_stats_;
  mutable std::mutex stats_mu_;
  StoreStats published_stats_;
};

}  // namespace lss

#endif  // LSS_CORE_SEAL_PIPELINE_H_
