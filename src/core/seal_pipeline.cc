#include "core/seal_pipeline.h"

#include <utility>
#include <vector>

namespace lss {

SealPipeline::SealPipeline(SegmentBackend* backend, const StoreConfig& config,
                           StoreStats* shard_stats)
    : backend_(backend),
      async_(config.async_seal),
      queue_depth_(config.seal_queue_depth < 1 ? 1 : config.seal_queue_depth),
      count_fsyncs_(config.backend_fsync),
      shard_stats_(shard_stats) {}

SealPipeline::~SealPipeline() { Shutdown(); }

void SealPipeline::Start() {
  if (!async_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  {
    // Publish what Open/Scan already accumulated (recovery device
    // counters) — a snapshot taken before the
    // first batch must not read as "no backend activity".
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    published_stats_ = io_stats_;
  }
  backend_->SetDeferredSync(true);
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { ThreadMain(); });
}

Status SealPipeline::Apply(const Op& op) {
  StoreStats* stats = backend_stats();
  switch (op.kind) {
    case Op::Kind::kSeal:
      return backend_->SealSegment(op.record);
    case Op::Kind::kCheckpoint:
    case Op::Kind::kCheckpointDelta: {
      const bool delta = op.kind == Op::Kind::kCheckpointDelta;
      Status s = delta ? backend_->CheckpointDelta(op.record)
                       : backend_->Checkpoint(op.record);
      if (s.ok()) {
        ++stats->checkpoints_written;
        ++(delta ? stats->checkpoint_delta_records
                 : stats->checkpoint_full_records);
      }
      return s;
    }
    case Op::Kind::kReclaim:
      return backend_->ReclaimSegment(op.segment, op.unow);
    case Op::Kind::kDelete:
      return backend_->RecordDelete(op.page, op.seq, op.unow);
    case Op::Kind::kRehome:
      // The backend syncs internally: the record is durable before the
      // next op (the reused slot's seal) runs, even mid-batch.
      return backend_->RehomeEntries(op.record);
  }
  return Status::OK();
}

Status SealPipeline::Submit(Op op, uint64_t* ticket) {
  uint64_t unused;
  if (ticket == nullptr) ticket = &unused;
  *ticket = 0;
  if (!async_) return Apply(op);
  std::unique_lock<std::mutex> lock(mu_);
  auto rejected = [this] { return !started_ || stop_ || !error_.ok(); };
  const bool stalled = !rejected() && queue_.size() >= queue_depth_;
  if (stalled) {
    done_cv_.wait(lock, [&] {
      return queue_.size() < queue_depth_ || rejected();
    });
  }
  if (rejected()) {
    return error_.ok() ? Status::InvalidArgument("seal pipeline is stopped")
                       : error_;
  }
  queue_.push_back(std::move(op));
  *ticket = ++enqueued_;
  work_cv_.notify_one();
  ++shard_stats_->seal_queue_enqueued;
  if (stalled) ++shard_stats_->seal_queue_stalls;
  return Status::OK();
}

uint64_t SealPipeline::applied_ticket() const {
  if (!async_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

Status SealPipeline::WaitApplied(uint64_t ticket) const {
  if (ticket == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, ticket] {
    return applied_ >= ticket || !error_.ok();
  });
  return error_;
}

Status SealPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = enqueued_;
  done_cv_.wait(lock, [this, target] {
    return applied_ >= target || !error_.ok();
  });
  return error_;
}

Status SealPipeline::Barrier() {
  return async_ ? Drain() : backend_->Sync();
}

Status SealPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return error_;
    stop_ = true;
    work_cv_.notify_one();
    done_cv_.notify_all();
  }
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  return error_;
}

Status SealPipeline::error() const {
  if (!async_) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

StoreStats SealPipeline::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return published_stats_;
}

Status SealPipeline::ResetStats() {
  Status s = Drain();
  // The I/O thread is idle (or dead) now and only touches its stats
  // while applying ops, which only this owner thread can submit.
  io_stats_.ResetMeasurement();
  std::lock_guard<std::mutex> lock(stats_mu_);
  published_stats_.ResetMeasurement();
  return s;
}

void SealPipeline::ThreadMain() {
  std::vector<Op> batch;
  for (;;) {
    batch.clear();
    bool dead;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing left to drain
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      dead = !error_.ok();
      done_cv_.notify_all();  // backpressured producers may refill
    }

    Status s = Status::OK();
    if (!dead) {
      // Apply in queue order — the order carries the crash-ordering
      // invariants, so a failure must stop the batch, not skip over.
      for (const Op& op : batch) {
        s = Apply(op);
        if (!s.ok()) break;
      }
      // Group commit: one sync covers the whole batch (and releases the
      // hole punches that were waiting on durability).
      if (s.ok()) {
        s = backend_->Sync();
        if (s.ok() && count_fsyncs_) {
          ++io_stats_.group_fsyncs;
          io_stats_.group_fsync_ops += batch.size();
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      published_stats_ = io_stats_;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Tickets advance even past a failure so waiters wake; the sticky
      // error, not the ticket count, is the source of truth then.
      applied_ += batch.size();
      if (!s.ok() && error_.ok()) error_ = s;
      done_cv_.notify_all();
    }
  }
}

}  // namespace lss
