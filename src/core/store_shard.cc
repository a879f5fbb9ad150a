#include "core/store_shard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace lss {

StoreShard::StoreShard(const StoreConfig& config,
                       std::unique_ptr<CleaningPolicy> policy,
                       PageTable* table, uint32_t shard_id,
                       uint32_t num_shards,
                       std::unique_ptr<SegmentBackend> backend)
    : config_(config),
      policy_(std::move(policy)),
      backend_(backend ? std::move(backend)
                       : std::make_unique<NullBackend>()),
      table_(*table),
      buffer_(static_cast<uint64_t>(config.write_buffer_segments) *
              config.segment_bytes),
      shard_id_(shard_id),
      num_shards_(num_shards) {
  assert(policy_ != nullptr);
  segments_.reserve(config_.num_segments);
  free_list_.reserve(config_.num_segments);
  for (uint32_t i = 0; i < config_.num_segments; ++i) {
    segments_.emplace_back(config_.segment_bytes);
  }
  // Allocate from low ids first (cosmetic; any order works).
  for (uint32_t i = config_.num_segments; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
  slot_generation_.assign(config_.num_segments, 0);
  ckpt_chain_.assign(config_.num_segments, CheckpointChain{});
  if (config_.async_seal) {
    pipeline_ = std::make_unique<SealPipeline>(
        backend_.get(), config_.seal_queue_depth, config_.backend_fsync);
    seal_ticket_.assign(config_.num_segments, 0);
  }
}

StoreShard::~StoreShard() {
  if (!closed_) Close();
}

Status StoreShard::OpenBackend(bool recover) {
  // In async mode the backend's device counters are updated by the I/O
  // thread, so they must land in pipeline-owned storage, not in stats_.
  StoreStats* sink = pipeline_ ? pipeline_->backend_stats() : &stats_;
  Status s = backend_->Open(config_, shard_id_, num_shards_, sink, recover);
  // Start after Open: Scan (during a recovering open) still runs on the
  // caller's thread, safely — the queue is empty until the first write.
  if (s.ok() && pipeline_) pipeline_->Start();
  return s;
}

Status StoreShard::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status result = Status::OK();
  // Drain the buffer and seal every open segment so the device holds the
  // complete store; with the null backend this is pure bookkeeping.
  if (!buffer_.Empty() && sticky_error_.ok()) {
    result = FlushUserBuffer();
    if (!result.ok()) sticky_error_ = result;
  }
  std::vector<uint64_t> open_keys;
  open_keys.reserve(open_segments_.size());
  for (const auto& [key, id] : open_segments_) {
    (void)id;
    open_keys.push_back(key);
  }
  std::sort(open_keys.begin(), open_keys.end());
  for (uint64_t key : open_keys) {
    Status s = SealOpenSegment(static_cast<uint32_t>(key >> 1),
                               static_cast<uint32_t>(key & 1));
    if (!s.ok() && result.ok()) result = s;
  }
  // Everything is sealed now, so any still-withheld victim reclaims are
  // safe to announce before the backend's final sync.
  Status s = ReleaseReclaims();
  if (!s.ok() && result.ok()) result = s;
  // Drain and join the I/O thread: every queued seal must reach the
  // device before the backend closes, so no acknowledged write is lost
  // when Close races in-flight seals.
  if (pipeline_) {
    s = pipeline_->Shutdown();
    if (!s.ok() && result.ok()) result = s;
  }
  s = backend_->Close();
  if (!s.ok() && result.ok()) result = s;
  return result;
}

void StoreShard::SetExactFrequencyOracle(ExactFrequencyFn oracle) {
  oracle_ = std::move(oracle);
}

double StoreShard::EstimateUpf(PageId page) const {
  if (oracle_) return oracle_(page);
  if (page >= table_.Size()) return 0.0;
  const PageMeta& m = table_.Get(page);
  if (m.last_update == 0 || unow_ <= m.last_update) return 0.0;
  return 1.0 / static_cast<double>(unow_ - m.last_update);
}

size_t StoreShard::LivePageCount() const {
  size_t n = 0;
  for (PageId p = 0; p < table_.Size(); ++p) {
    if (OwnsPage(p) && table_.Present(p)) ++n;
  }
  return n;
}

double StoreShard::CurrentFillFactor() const {
  uint64_t live = 0;
  for (const Segment& s : segments_) live += s.live_bytes();
  for (size_t i = 0; i < buffer_.Count(); ++i) {
    const BufferedWrite& w = buffer_.Get(i);
    if (w.page != kInvalidPage) live += w.bytes;
  }
  const double device = static_cast<double>(config_.num_segments) *
                        static_cast<double>(config_.segment_bytes);
  return static_cast<double>(live) / device;
}

double StoreShard::CurrentUp2(const PageLocation& loc) const {
  if (loc.InBuffer()) return buffer_.Get(loc.index).up2;
  return segments_[loc.segment].Up2Estimate();
}

void StoreShard::KillOldVersion(PageId page, const PageLocation& loc) {
  assert(!loc.InBuffer());
  const double exact = oracle_ ? oracle_(page) : 0.0;
  segments_[loc.segment].Kill(loc.index, exact);
}

Status StoreShard::Write(PageId page, uint32_t bytes) {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  if (bytes == 0) bytes = config_.page_bytes;
  if (bytes > config_.segment_bytes) {
    return Status::InvalidArgument("page larger than a segment");
  }
  if (!PageTable::Addressable(page)) {
    return Status::InvalidArgument("page id past the page table's capacity");
  }
  assert(OwnsPage(page));
  ++unow_;
  ++stats_.user_updates;

  PageMeta& m = table_.Ensure(page);
  const double exact = oracle_ ? oracle_(page) : 0.0;
  const bool first = !m.loc.Present();

  // Estimate based on the previous update timestamp (multi-log's
  // estimator); must be computed before last_update is overwritten.
  double est_upf = exact;
  if (!oracle_ && !first && unow_ > m.last_update) {
    est_upf = 1.0 / static_cast<double>(unow_ - m.last_update);
  }

  double up2 = 0.0;
  if (!first) {
    // §5.2.2 "Non-first Write": assume up1 was midway between unow and
    // up2; the prior up1 becomes the new up2.
    const double old_up2 = CurrentUp2(m.loc);
    up2 = old_up2 + 0.5 * (static_cast<double>(unow_) - old_up2);
    if (m.loc.InBuffer()) {
      // Paper accounting: the buffer is a queue of writes, so the
      // superseded copy stays queued and will be flushed as a write that
      // is dead on arrival (it costs a physical page write and becomes
      // instant garbage). The page table moves on to the new copy.
      buffer_.GetMutable(m.loc.index).superseded = true;
      m.loc = PageLocation{};
    } else {
      KillOldVersion(page, m.loc);
    }
  }
  m.bytes = bytes;
  m.last_update = unow_;

  if (config_.write_buffer_segments > 0) {
    BufferedWrite w;
    w.page = page;
    w.bytes = bytes;
    w.up2 = up2;
    w.first_write = first;
    w.exact_upf = exact;
    const uint32_t slot = buffer_.Add(w);
    m.loc = PageLocation{kBufferSegment, slot};
    if (buffer_.Full()) {
      Status s = FlushUserBuffer();
      if (!s.ok()) sticky_error_ = s;
      return s;
    }
    return Status::OK();
  }

  // Unbuffered: place immediately in arrival order. First writes get the
  // coldest possible estimate (up2 = 0), warming up as they are re-written.
  Status s = PlacePage(page, bytes, up2, exact, est_upf, /*is_gc=*/false);
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Delete(PageId page) {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  if (!table_.Present(page)) {
    return Status::NotFound("page not present");
  }
  assert(OwnsPage(page));
  PageMeta& m = table_.Ensure(page);
  if (m.loc.InBuffer()) {
    buffer_.Invalidate(m.loc.index);
  } else {
    KillOldVersion(page, m.loc);
  }
  m.loc = PageLocation{};
  m.bytes = 0;
  ++stats_.deletes;
  Status s = EmitDelete(page, ++write_seq_, unow_);
  if (s.ok()) s = MaybePeriodicCheckpoint();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Flush() {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  if (buffer_.Empty()) return Status::OK();
  Status s = FlushUserBuffer();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Checkpoint() {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  Status s = Status::OK();
  if (!buffer_.Empty()) s = FlushUserBuffer();
  // Snapshot every non-empty open segment.
  if (s.ok()) s = CheckpointOpenSegments();
  ops_since_checkpoint_ = 0;
  // The barrier: wait out the queue (async) and make it all durable.
  if (s.ok()) s = pipeline_ ? pipeline_->Drain() : backend_->Sync();
  // Everything emitted is durable now; pending watermarks can commit so
  // the next round's deltas base on what this barrier persisted.
  if (s.ok() && pipeline_ != nullptr) CommitDurableWatermarks();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::ReadPage(PageId page, std::vector<uint8_t>* out) const {
  if (!table_.Present(page)) return Status::NotFound("page not present");
  const PageMeta& m = table_.Get(page);
  if (m.loc.InBuffer()) {
    return Status::InvalidArgument("page still in write buffer");
  }
  const Segment& seg = segments_[m.loc.segment];
  if (seg.state() != SegmentState::kSealed) {
    return Status::InvalidArgument("page in an unsealed segment");
  }
  // Async mode: the in-memory seal may still be queued; wait until the
  // I/O thread has written the payload before reading it back. The
  // pipeline thread never takes the shard lock, so waiting under it is
  // deadlock-free.
  if (pipeline_ != nullptr) {
    const uint64_t ticket = seal_ticket_[m.loc.segment];
    if (ticket != 0) {
      Status s = pipeline_->WaitApplied(ticket);
      if (!s.ok()) return s;
    }
  }
  return backend_->ReadPagePayload(m.loc.segment,
                                   seg.entries()[m.loc.index].offset, page,
                                   m.bytes, out);
}

Status StoreShard::FlushUserBuffer() {
  std::vector<BufferedWrite> batch = buffer_.Drain();

  // §5.2.2 "First Write": first writes get the oldest up2 in the batch
  // ("pages mostly contain cold data, assigning a up2 that makes the page
  // 'coldish' is usually appropriate").
  double oldest = std::numeric_limits<double>::infinity();
  for (const BufferedWrite& w : batch) {
    if (w.page != kInvalidPage && !w.first_write) {
      oldest = std::min(oldest, w.up2);
    }
  }
  if (!std::isfinite(oldest)) oldest = 0.0;
  for (BufferedWrite& w : batch) {
    if (w.first_write) w.up2 = oldest;
  }

  if (config_.separate_user_writes) {
    // Sort hottest first; the key is the exact frequency when an oracle
    // is installed (the *-opt variants), else the up2 estimate (§5.3).
    if (oracle_) {
      std::stable_sort(batch.begin(), batch.end(),
                       [](const BufferedWrite& a, const BufferedWrite& b) {
                         return a.exact_upf > b.exact_upf;
                       });
    } else {
      std::stable_sort(batch.begin(), batch.end(),
                       [](const BufferedWrite& a, const BufferedWrite& b) {
                         return a.up2 > b.up2;
                       });
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    const BufferedWrite& w = batch[i];
    if (w.page == kInvalidPage) continue;  // deleted while buffered
    double est = w.exact_upf;
    if (!oracle_ && !w.first_write) {
      // up2-implied frequency: two updates over (unow - up2) ticks (§4.3).
      const double interval = static_cast<double>(unow_) - w.up2;
      est = interval > 0 ? 2.0 / interval : 2.0;
    }
    // PlacePage counts a user page right after appending it, so the
    // counter tells whether a failure came before or after the append.
    const uint64_t written_before = stats_.user_pages_written;
    Status s = PlacePage(w.page, w.bytes, w.up2, w.exact_upf, est,
                         /*is_gc=*/false, /*dead_on_arrival=*/w.superseded);
    if (s.ok()) continue;
    // Put every write not yet placed back into the buffer and re-point
    // its table slot there. A superseded copy is not what the table
    // points at; its page's newer copy re-points it (requeued too, or
    // already placed).
    if (stats_.user_pages_written != written_before) ++i;
    for (; i < batch.size(); ++i) {
      const BufferedWrite& rest = batch[i];
      if (rest.page == kInvalidPage) continue;
      const uint32_t slot = buffer_.Add(rest);
      if (!rest.superseded) {
        table_.Ensure(rest.page).loc = PageLocation{kBufferSegment, slot};
      }
    }
    return s;
  }
  return Status::OK();
}

Status StoreShard::PlacePage(PageId page, uint32_t bytes, double up2,
                             double exact_upf, double est_upf, bool is_gc,
                             bool dead_on_arrival) {
  const uint32_t log = policy_->PlacementLog(*this, page, is_gc, est_upf);
  const uint32_t stream =
      (is_gc && !config_.gc_shares_user_stream) ? kGcStream : kUserStream;

  SegmentId id = kInvalidSegment;
  Segment* seg = OpenSegmentFor(log, stream, is_gc, &id);
  if (seg == nullptr) {
    return sticky_error_.ok() ? Status::OutOfSpace("no free segment to open")
                              : sticky_error_;
  }
  // Seal-and-reopen until the page fits. One round usually suffices, but
  // OpenSegmentFor may adopt a partially-filled segment the cleaner
  // opened for this key, so this must loop (bounded: each round seals a
  // segment, and a fresh segment always fits the page).
  for (int rounds = 0; !seg->HasRoomFor(bytes); ++rounds) {
    if (rounds > 4) {
      return Status::Corruption("unable to open a segment with room");
    }
    Status s = SealOpenSegment(log, stream);
    if (!s.ok()) return s;
    seg = OpenSegmentFor(log, stream, is_gc, &id);
    if (seg == nullptr) {
      return sticky_error_.ok()
                 ? Status::OutOfSpace("no free segment to open")
                 : sticky_error_;
    }
  }
  const PageMeta& meta = table_.Get(page);
  const uint32_t idx =
      seg->Append(page, bytes, up2, exact_upf, ++write_seq_, meta.last_update);
  if (dead_on_arrival) {
    // A queued duplicate: the physical write happens, the version is
    // immediately garbage, and the page table keeps pointing at the
    // newer copy. Marked dead-on-arrival so durable records never
    // resurrect it (the flush sort makes its seq order meaningless).
    seg->Kill(idx, exact_upf, /*dead_on_arrival=*/true);
  } else {
    table_.Ensure(page).loc = PageLocation{id, idx};
  }
  if (is_gc) {
    ++stats_.gc_pages_written;
    stats_.gc_bytes_written += bytes;
    // This open segment now holds a relocated page; reclaim records for
    // the cleaner's victims are withheld until it seals.
    gc_dirty_open_.insert(id);
  } else {
    ++stats_.user_pages_written;
    stats_.user_bytes_written += bytes;
  }
  // Seal exactly-full segments eagerly. With fixed-size pages segments
  // fill to the byte, and an exactly-full segment left open is invisible
  // to the cleaner while pinning a whole segment of space.
  if (!seg->HasRoomFor(1)) return SealOpenSegment(log, stream);
  return Status::OK();
}

Segment* StoreShard::OpenSegmentFor(uint32_t log, uint32_t stream, bool is_gc,
                                    SegmentId* id_out) {
  const uint64_t key = OpenKey(log, stream);
  auto it = open_segments_.find(key);
  if (it != open_segments_.end()) {
    *id_out = it->second;
    return &segments_[it->second];
  }
  const SegmentId id = AllocateSegment(log);
  if (id == kInvalidSegment) return nullptr;
  // Allocation can run the cleaner, and the cleaner's own placements may
  // have opened a segment for this very key; adopt it and return the
  // allocated segment to the pool instead of orphaning an open segment.
  it = open_segments_.find(key);
  if (it != open_segments_.end()) {
    free_list_.push_back(id);
    *id_out = it->second;
    return &segments_[it->second];
  }
  // Reuse changes the slot's payload identity: the new fill generation
  // closes any checkpoint chain of the previous occupant.
  InvalidateCheckpointChain(id);
  segments_[id].Open(log, is_gc ? SegmentSource::kGc : SegmentSource::kUser,
                     unow_);
  open_segments_.emplace(key, id);
  *id_out = id;
  return &segments_[id];
}

BackendSegmentRecord StoreShard::MakeSealRecord(SegmentId id,
                                                const Segment& seg,
                                                bool checkpoint) const {
  BackendSegmentRecord rec;
  rec.id = id;
  rec.log = seg.log();
  rec.source = seg.source();
  rec.open_time = seg.open_time();
  // A checkpointed segment has no seal time yet; the clock at snapshot
  // time stands in (recovery rebuilds it as sealed-at-that-instant,
  // which is what age-based policies should see).
  rec.seal_time = checkpoint ? unow_ : seg.seal_time();
  rec.unow = unow_;
  rec.checkpoint = checkpoint;
  rec.generation = slot_generation_[id];
  rec.entries = seg.entries();
  // In-place-killed entries are recorded *live* under their original
  // identity: their successor always carries a larger append sequence,
  // so replay's newest-wins picks the successor whenever its record
  // survived — and legitimately resurrects this version when the crash
  // took the successor's record with it. Without this, re-recording a
  // segment (a later checkpoint, or the seal after one) would erase the
  // only durable copy of a page whose newest version never reached the
  // device. Dead-on-arrival duplicates stay dead: the flush sort makes
  // their seq order against the successor meaningless.
  for (Segment::Entry& e : rec.entries) {
    if (e.page == kInvalidPage && !e.doa && e.orig_page != kInvalidPage) {
      e.page = e.orig_page;
    }
  }
  return rec;
}

Status StoreShard::EnqueueOp(SealPipeline::Op op, uint64_t* ticket_out) {
  bool stalled = false;
  const uint64_t ticket = pipeline_->Enqueue(std::move(op), &stalled);
  if (ticket == 0) {
    const Status e = pipeline_->error();
    return e.ok() ? Status::InvalidArgument("seal pipeline is stopped") : e;
  }
  ++stats_.seal_queue_enqueued;
  if (stalled) ++stats_.seal_queue_stalls;
  if (ticket_out != nullptr) *ticket_out = ticket;
  return Status::OK();
}

Status StoreShard::EmitSeal(SegmentId id, const Segment& seg) {
  ++ops_since_checkpoint_;
  if (pipeline_ == nullptr) {
    return backend_->SealSegment(MakeSealRecord(id, seg));
  }
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kSeal;
  op.record = MakeSealRecord(id, seg);
  return EnqueueOp(std::move(op), &seal_ticket_[id]);
}

Status StoreShard::EmitCheckpoint(SegmentId id, const Segment& seg) {
  const uint64_t gen = slot_generation_[id];
  const uint64_t entries = seg.entries().size();
  const uint64_t bytes = seg.used_bytes();
  if (pipeline_ == nullptr) {
    Status s = backend_->Checkpoint(MakeSealRecord(id, seg,
                                                   /*checkpoint=*/true));
    if (!s.ok()) return s;
    ++stats_.checkpoints_written;
    ++stats_.checkpoint_full_records;
    // Synchronous backends make the record durable before returning, so
    // the watermark commits at emission.
    segments_[id].SetCheckpointWatermark(static_cast<uint32_t>(entries),
                                         bytes);
    ckpt_chain_[id] = CheckpointChain{true, gen, entries, bytes};
    return s;
  }
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kCheckpoint;
  op.record = MakeSealRecord(id, seg, /*checkpoint=*/true);
  uint64_t ticket = 0;
  Status s = EnqueueOp(std::move(op), &ticket);
  if (!s.ok()) return s;
  // The chain tracks *emitted* coverage (queue order = log order); the
  // durable watermark waits for the pipeline's group sync.
  ckpt_chain_[id] = CheckpointChain{true, gen, entries, bytes};
  pending_watermarks_.push_back(
      PendingWatermark{id, gen, static_cast<uint32_t>(entries), bytes,
                       ticket});
  return s;
}

Status StoreShard::EmitCheckpointDelta(SegmentId id, const Segment& seg) {
  const uint64_t gen = slot_generation_[id];
  const uint32_t wm_entries = seg.checkpoint_entries();
  const uint64_t wm_bytes = seg.checkpoint_bytes();
  const uint64_t entries = seg.entries().size();
  const uint64_t bytes = seg.used_bytes();
  assert(wm_entries <= entries && wm_bytes <= bytes);

  BackendSegmentRecord rec;
  rec.id = id;
  rec.log = seg.log();
  rec.source = seg.source();
  rec.open_time = seg.open_time();
  rec.seal_time = unow_;  // as EmitCheckpoint: snapshot-time clock
  rec.unow = unow_;
  rec.checkpoint = true;
  rec.delta = true;
  rec.generation = gen;
  rec.prefix_entries = wm_entries;
  rec.suffix_offset = wm_bytes;
  rec.suffix_length = bytes - wm_bytes;
  // Only the suffix past the durable watermark travels; the base chain
  // already covers the prefix byte-for-byte (in-place kills never change
  // recorded content — see the resurrection rule in MakeSealRecord,
  // applied to the suffix here too).
  rec.entries.assign(seg.entries().begin() + wm_entries, seg.entries().end());
  for (Segment::Entry& e : rec.entries) {
    if (e.page == kInvalidPage && !e.doa && e.orig_page != kInvalidPage) {
      e.page = e.orig_page;
    }
  }
  if (pipeline_ == nullptr) {
    Status s = backend_->CheckpointDelta(rec);
    if (!s.ok()) return s;
    ++stats_.checkpoints_written;
    ++stats_.checkpoint_delta_records;
    segments_[id].SetCheckpointWatermark(static_cast<uint32_t>(entries),
                                         bytes);
    ckpt_chain_[id].emitted_entries = entries;
    ckpt_chain_[id].emitted_bytes = bytes;
    return s;
  }
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kCheckpointDelta;
  op.record = std::move(rec);
  uint64_t ticket = 0;
  Status s = EnqueueOp(std::move(op), &ticket);
  if (!s.ok()) return s;
  ckpt_chain_[id].emitted_entries = entries;
  ckpt_chain_[id].emitted_bytes = bytes;
  pending_watermarks_.push_back(
      PendingWatermark{id, gen, static_cast<uint32_t>(entries), bytes,
                       ticket});
  return s;
}

Status StoreShard::EmitOpenSegmentCheckpoint(SegmentId id,
                                             const Segment& seg) {
  if (!DeltaCheckpointsEnabled()) return EmitCheckpoint(id, seg);
  const CheckpointChain& chain = ckpt_chain_[id];
  if (!chain.valid || chain.generation != slot_generation_[id]) {
    // No base, or the slot was refilled since: start the chain over.
    return EmitCheckpoint(id, seg);
  }
  if (chain.emitted_entries == seg.entries().size() &&
      chain.emitted_bytes == seg.used_bytes()) {
    // The emitted chain already covers every entry (in-place kills since
    // then re-record identically, so there is nothing new to persist).
    return Status::OK();
  }
  return EmitCheckpointDelta(id, seg);
}

void StoreShard::CommitDurableWatermarks() {
  if (pending_watermarks_.empty() || pipeline_ == nullptr) return;
  if (!pipeline_->error().ok()) {
    pending_watermarks_.clear();
    return;
  }
  const uint64_t applied = pipeline_->applied_ticket();
  size_t kept = 0;
  for (size_t i = 0; i < pending_watermarks_.size(); ++i) {
    const PendingWatermark& pw = pending_watermarks_[i];
    if (pw.ticket > applied) {
      if (kept != i) pending_watermarks_[kept] = pw;
      ++kept;
      continue;
    }
    // Stale generations (the slot sealed or was refilled since emission)
    // are dropped: the watermark belongs to a payload that no longer
    // exists in this slot.
    if (pw.generation == slot_generation_[pw.id] &&
        segments_[pw.id].state() == SegmentState::kOpen) {
      segments_[pw.id].SetCheckpointWatermark(pw.entries, pw.bytes);
    }
  }
  pending_watermarks_.resize(kept);
}

Status StoreShard::EmitReclaim(SegmentId id, UpdateCount unow) {
  ++ops_since_checkpoint_;
  // A free record erases every earlier record of the slot on replay —
  // including the checkpoint chain of a *new* occupant when the victim's
  // withheld free releases after the slot was reused. Whatever chain the
  // slot carries is dead in the log the moment this record lands, so the
  // next checkpoint of the slot must start over with a full record.
  InvalidateCheckpointChain(id);
  if (pipeline_ == nullptr) return backend_->ReclaimSegment(id, unow);
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kReclaim;
  op.segment = id;
  op.unow = unow;
  return EnqueueOp(std::move(op));
}

Status StoreShard::EmitDelete(PageId page, uint64_t seq, UpdateCount unow) {
  ++ops_since_checkpoint_;
  if (pipeline_ == nullptr) return backend_->RecordDelete(page, seq, unow);
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kDelete;
  op.page = page;
  op.seq = seq;
  op.unow = unow;
  return EnqueueOp(std::move(op));
}

Status StoreShard::CheckpointGcDirtyOpen(SegmentId skip) {
  if (gc_dirty_open_.empty()) return Status::OK();
  CommitDurableWatermarks();
  std::vector<SegmentId> ids(gc_dirty_open_.begin(), gc_dirty_open_.end());
  std::sort(ids.begin(), ids.end());
  for (SegmentId id : ids) {
    if (id == skip) continue;
    const Segment& seg = segments_[id];
    if (seg.state() != SegmentState::kOpen || seg.entries().empty()) continue;
    // Skip-when-covered is safe here too: an already-emitted chain
    // precedes the forced free record in queue = log order.
    Status s = EmitOpenSegmentCheckpoint(id, seg);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StoreShard::CheckpointOpenSegments() {
  ++stats_.checkpoint_rounds;
  // Harvest durability first so this round's deltas base on the newest
  // durable watermark instead of re-sending already-synced suffixes.
  CommitDurableWatermarks();
  std::vector<uint64_t> open_keys;
  open_keys.reserve(open_segments_.size());
  for (const auto& [key, id] : open_segments_) {
    (void)id;
    open_keys.push_back(key);
  }
  std::sort(open_keys.begin(), open_keys.end());
  for (uint64_t key : open_keys) {
    const SegmentId id = open_segments_[key];
    if (segments_[id].entries().empty()) continue;
    Status s = EmitOpenSegmentCheckpoint(id, segments_[id]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StoreShard::MaybePeriodicCheckpoint() {
  if (!CheckpointingEnabled() ||
      ops_since_checkpoint_ < config_.checkpoint_interval_ops) {
    return Status::OK();
  }
  ops_since_checkpoint_ = 0;
  return CheckpointOpenSegments();
}

void StoreShard::AbsorbPipelineError() {
  if (pipeline_ == nullptr || !sticky_error_.ok()) return;
  Status s = pipeline_->error();
  if (!s.ok()) sticky_error_ = s;
}

StoreStats StoreShard::StatsSnapshot() const {
  StoreStats s = stats_;
  if (pipeline_ != nullptr) s.Merge(pipeline_->StatsSnapshot());
  return s;
}

void StoreShard::ResetMeasurement() {
  // Drain first so no in-flight op's counters straddle the reset.
  if (pipeline_ != nullptr) pipeline_->ResetStats();
  stats_.ResetMeasurement();
}

Status StoreShard::SealOpenSegment(uint32_t log, uint32_t stream) {
  const uint64_t key = OpenKey(log, stream);
  auto it = open_segments_.find(key);
  assert(it != open_segments_.end());
  const SegmentId id = it->second;
  Segment& seg = segments_[id];
  const bool was_gc = seg.source() == SegmentSource::kGc;
  seg.Seal(unow_);
  // The seal record supersedes the slot's checkpoint chain (and closes
  // it backend-side too); any late watermark for this generation must
  // not survive into the slot's next life.
  InvalidateCheckpointChain(id);
  if (was_gc) {
    ++stats_.gc_segments_sealed;
  } else {
    ++stats_.user_segments_sealed;
  }
  open_segments_.erase(it);

  // If this slot is a reclaimed victim whose free record is still
  // withheld, it must be announced now: the new seal overwrites the old
  // payload anyway (withholding protects nothing any more), and the
  // free record must precede the new seal record in the metadata log so
  // replay resolves the slot to its new contents.
  for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
    if (reclaim_queue_[i].id != id) continue;
    // The forced-out free record erases the victim's entries from
    // replay. With checkpointing on, first persist every open segment
    // still holding GC-moved pages, so the relocated copies precede the
    // free record on the device — this closes the residual crash window
    // documented at reclaim_queue_.
    if (CheckpointingEnabled()) {
      Status cs = CheckpointGcDirtyOpen(id);
      if (!cs.ok()) return cs;
    }
    Status s = EmitReclaim(id, reclaim_queue_[i].unow);
    if (!s.ok()) return s;
    reclaim_queue_.erase(reclaim_queue_.begin() +
                         static_cast<ptrdiff_t>(i));
    break;
  }

  Status s = EmitSeal(id, seg);
  if (!s.ok()) return s;

  // Once no open segment holds GC-moved pages, every relocated page is
  // sealed (durable on a real backend, or ordered ahead of any later
  // free record in the pipeline queue) and the withheld victim reclaims
  // can reach the device — in checkpoint mode only those whose dead
  // entries' successors are recorded too (ReleaseSafeReclaims).
  gc_dirty_open_.erase(id);
  if (gc_dirty_open_.empty() && !reclaim_queue_.empty()) {
    Status r =
        CheckpointingEnabled() ? ReleaseSafeReclaims() : ReleaseReclaims();
    if (!r.ok()) return r;
  }
  return MaybePeriodicCheckpoint();
}

SegmentId StoreShard::AllocateSegment(uint32_t log) {
  if (!cleaning_ && free_list_.size() <= config_.clean_trigger_segments) {
    Status s = Clean(log);
    if (!s.ok()) {
      // Out-of-space with segments still free is survivable (best-effort
      // cleaning); anything else — a backend write failure above all —
      // poisons the shard so the caller sees the real error, not a
      // misleading out-of-space.
      if (s.code() != Status::Code::kOutOfSpace) {
        sticky_error_ = s;
        return kInvalidSegment;
      }
      if (free_list_.empty()) return kInvalidSegment;
    }
  }
  if (free_list_.empty()) return kInvalidSegment;
  if (CheckpointingEnabled() && !reclaim_queue_.empty()) {
    // Crash safety: never reseal a slot whose free record is still
    // withheld. The rewrite's payload pwrite would tear regions that the
    // slot's still-live durable record references, and when the victim's
    // relocated copies land in the very same slot (the cleaner reuses
    // just-freed victims immediately) no checkpoint elsewhere can save
    // them. Prefer any non-withheld free slot; relative order of the
    // rest is preserved so this stays deterministic.
    auto pick_non_withheld = [this](SegmentId* out) {
      for (size_t i = free_list_.size(); i > 0; --i) {
        if (!IsWithheld(free_list_[i - 1])) {
          *out = free_list_[i - 1];
          free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i - 1));
          return true;
        }
      }
      return false;
    };
    SegmentId id = kInvalidSegment;
    if (pick_non_withheld(&id)) return id;
    // Only withheld slots remain. A safe release round (checkpoint the
    // opens, emit the frees whose victims have no still-needed entries)
    // usually clears some — it is valid mid-clean too. If nothing
    // clears, fall through to reusing a withheld slot, made crash-safe
    // below by re-homing.
    Status s = ReleaseSafeReclaims();
    if (!s.ok()) {
      sticky_error_ = s;
      return kInvalidSegment;
    }
    if (pick_non_withheld(&id)) return id;
    // Every remaining free slot is a withheld victim; the common pick
    // below reuses one. The reuse will eventually overwrite the
    // victim's payload (a crashing rewrite can tear it), so any victim
    // entry that replay could still need must first reach the device
    // under another record. Entries whose current version already sits
    // in an emitted record are settled permanently (an emitted
    // superseding record stays in the log even if the page is later
    // rewritten into the buffer) and are pruned; the remainder — if
    // any — is persisted under a re-homing record, made durable before
    // this call returns, which recovery resolves newest-record-wins and
    // re-materialises when it still holds a page's latest version.
    // Plain reuse of a slot holding needed entries is thereby
    // impossible by construction.
    const SegmentId reuse = free_list_.back();
    std::vector<Segment::Entry> still_needed;
    size_t queue_pos = reclaim_queue_.size();
    for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
      QueuedReclaim& qr = reclaim_queue_[i];
      if (qr.id != reuse) continue;
      for (const Segment::Entry& e : qr.needed) {
        if (!SuccessorEmitted(e.page)) still_needed.push_back(e);
      }
      queue_pos = i;
      break;
    }
    if (still_needed.empty()) {
      ++stats_.withheld_slot_reuses_plain;
    } else {
      stats_.rehome_entries_written += still_needed.size();
      Status rs = EmitRehome(reuse, std::move(still_needed));
      if (!rs.ok()) {
        sticky_error_ = rs;
        return kInvalidSegment;
      }
      ++stats_.withheld_slot_reuses_rehomed;
    }
    // Every entry of the victim is settled now (emitted successors or
    // the re-homing record just made durable), so its free record goes
    // out immediately — and must precede the slot's new occupant in the
    // log: a free record landing after the occupant's first checkpoint
    // would erase that record (and its delta chain) from replay.
    if (queue_pos < reclaim_queue_.size()) {
      Status fs = EmitReclaim(reuse, reclaim_queue_[queue_pos].unow);
      if (!fs.ok()) {
        sticky_error_ = fs;
        return kInvalidSegment;
      }
      reclaim_queue_.erase(reclaim_queue_.begin() +
                           static_cast<ptrdiff_t>(queue_pos));
    }
  }
  const SegmentId id = free_list_.back();
  free_list_.pop_back();
  return id;
}

uint64_t StoreShard::HarvestVictims(const std::vector<SegmentId>& victims,
                                    std::vector<MovedPage>* moved) {
  uint64_t reclaimed = 0;
  for (SegmentId id : victims) {
    Segment& seg = segments_[id];
    assert(seg.state() == SegmentState::kSealed);
    stats_.mutable_clean_emptiness().Add(seg.Emptiness());
    ++stats_.segments_cleaned;
    reclaimed += seg.available_bytes();
    const double seg_up2 = seg.up2();
    // Capture, before the Reset below, every entry the victim's durable
    // seal record still lists live that a recovery might need — the
    // slot's free record (and any reuse of the slot) must wait for them:
    //   - live entries: harvested now but not yet placed; until the
    //     copy lands the victim's record is the only durable home;
    //   - in-place-killed entries (recorded live under their original
    //     identity, see MakeSealRecord) whose superseding version is
    //     not yet recorded (write buffer / mid-placement).
    // The captured values mirror the seal record exactly: Kill leaves
    // every field but `page`/`doa` untouched, so page = orig_page
    // reproduces what MakeSealRecord serialised.
    std::vector<Segment::Entry> needed;
    for (const Segment::Entry& e : seg.entries()) {
      if (e.page == kInvalidPage) {
        if (CheckpointingEnabled() && !e.doa &&
            e.orig_page != kInvalidPage && !SuccessorRecorded(e.orig_page)) {
          Segment::Entry n = e;
          n.page = e.orig_page;
          needed.push_back(n);
        }
        continue;
      }
      if (CheckpointingEnabled()) needed.push_back(e);
      MovedPage mp;
      mp.page = e.page;
      mp.bytes = e.bytes;
      mp.up2 = seg_up2;
      mp.exact_upf = oracle_ ? oracle_(e.page) : 0.0;
      if (oracle_) {
        mp.est_upf = mp.exact_upf;
      } else {
        const UpdateCount last = table_.Get(e.page).last_update;
        mp.est_upf =
            unow_ > last ? 1.0 / static_cast<double>(unow_ - last) : 0.0;
      }
      moved->push_back(mp);
    }
    seg.Reset();
    InvalidateCheckpointChain(id);
    free_list_.push_back(id);
    // The backend is told later (ReleaseReclaims): a durable free record
    // now would let a crash erase this victim's entries while its moved
    // pages are still in unsealed destinations.
    reclaim_queue_.push_back(QueuedReclaim{id, unow_, std::move(needed)});
  }
  return reclaimed;
}

bool StoreShard::SuccessorRecorded(PageId page) const {
  // Absent: the delete's tombstone was emitted (and precedes any free
  // record in log order). Otherwise the current version must sit at a
  // real entry of a non-free segment — sealed segments are recorded, and
  // open ones are covered by the checkpoint round ReleaseSafeReclaims
  // runs before emitting frees. Buffered or mid-placement versions (the
  // table still pointing at a stale or dangling location) are not
  // recorded anywhere yet.
  if (!table_.Present(page)) return true;
  const PageMeta& m = table_.Get(page);
  if (m.loc.InBuffer()) return false;
  if (m.loc.segment >= segments_.size()) return false;
  const Segment& s = segments_[m.loc.segment];
  if (s.state() == SegmentState::kFree) return false;
  if (m.loc.index >= s.entries().size()) return false;
  return s.entries()[m.loc.index].page == page;
}

bool StoreShard::SuccessorEmitted(PageId page) const {
  // As SuccessorRecorded, but a version sitting in a merely-open
  // segment does not count: nothing has been emitted for it yet (the
  // caller must sequence a checkpoint round itself if it wants open
  // segments covered). Note this can never match the victim's own entry
  // a caller is testing — the victim was Reset at harvest, so a table
  // location still pointing there is dangling, not a match.
  if (!table_.Present(page)) return true;
  const PageMeta& m = table_.Get(page);
  if (m.loc.InBuffer()) return false;
  if (m.loc.segment >= segments_.size()) return false;
  const Segment& s = segments_[m.loc.segment];
  if (s.state() != SegmentState::kSealed) return false;
  if (m.loc.index >= s.entries().size()) return false;
  return s.entries()[m.loc.index].page == page;
}

Status StoreShard::EmitRehome(SegmentId victim,
                              std::vector<Segment::Entry> entries) {
  ++ops_since_checkpoint_;
  BackendSegmentRecord rec;
  rec.id = victim;
  rec.log = 0;
  rec.source = SegmentSource::kGc;
  rec.open_time = unow_;
  rec.seal_time = unow_;
  rec.unow = unow_;
  rec.entries = std::move(entries);
  if (pipeline_ == nullptr) return backend_->RehomeEntries(rec);
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kRehome;
  op.record = std::move(rec);
  uint64_t ticket = 0;
  Status s = EnqueueOp(std::move(op), &ticket);
  if (!s.ok()) return s;
  // Queue order already puts the rehome ahead of the reused slot's
  // future seal, and the backend syncs the record internally; waiting
  // here only surfaces a backend failure now, before the shard commits
  // to the reuse.
  return pipeline_->WaitApplied(ticket);
}

Status StoreShard::ReleaseSafeReclaims() {
  if (reclaim_queue_.empty()) return Status::OK();
  auto releasable = [this](const QueuedReclaim& qr) {
    // Every needed entry's current version must be recorded — or be
    // coverable by the checkpoint round below. Harvested-but-unplaced
    // pages fail this automatically: their table location dangles at
    // the Reset victim until the copy is placed.
    for (const Segment::Entry& e : qr.needed) {
      if (!SuccessorRecorded(e.page)) return false;
    }
    return true;
  };
  bool any = false;
  for (const QueuedReclaim& qr : reclaim_queue_) {
    if (releasable(qr)) {
      any = true;
      break;
    }
  }
  if (!any) return Status::OK();
  // One checkpoint round puts every successor or relocated copy still
  // sitting in an open segment on the device ahead of the free records.
  Status s = CheckpointOpenSegments();
  if (!s.ok()) return s;
  // A mid-loop emission failure leaves the queue partially compacted;
  // that is fine — the caller poisons the shard on any failure here.
  size_t kept = 0;
  for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
    QueuedReclaim& qr = reclaim_queue_[i];
    if (releasable(qr)) {
      s = EmitReclaim(qr.id, qr.unow);
      if (!s.ok()) return s;
    } else {
      // Guard against self-move: moving an element onto itself would
      // leave its needed list in a moved-from (empty) state and let a
      // later round release it prematurely.
      if (kept != i) reclaim_queue_[kept] = std::move(qr);
      ++kept;
    }
  }
  reclaim_queue_.resize(kept);
  return Status::OK();
}

Status StoreShard::ReleaseReclaims() {
  while (!reclaim_queue_.empty()) {
    const QueuedReclaim& qr = reclaim_queue_.back();
    Status s = EmitReclaim(qr.id, qr.unow);
    if (!s.ok()) return s;
    reclaim_queue_.pop_back();
  }
  return Status::OK();
}

Status StoreShard::Clean(uint32_t triggering_log) {
  cleaning_ = true;
  Status result = Status::OK();
  const size_t batch =
      std::max<size_t>(1, policy_->PreferredBatch(config_.clean_batch_segments));

  // Progress is measured in reclaimed *bytes*, not free-list growth: a
  // cycle can free one victim and immediately consume one segment for the
  // relocated pages (net zero on the pool) while still reclaiming most of
  // a segment's worth of dead space — those dribbles accumulate into free
  // segments over the next cycles. The device is declared full only after
  // repeated cycles whose victims were fully live (nothing reclaimable),
  // with a generous cycle cap as a backstop.
  int no_progress_cycles = 0;
  uint64_t cycle_cap = 16ull * config_.num_segments;
  while (free_list_.size() <= config_.clean_trigger_segments) {
    if (cycle_cap-- == 0) {
      result = Status::OutOfSpace("cleaning cycle cap exceeded");
      break;
    }
    const size_t free_before = free_list_.size();

    std::vector<SegmentId> victims;
    policy_->SelectVictims(*this, triggering_log, batch, &victims);
    if (victims.empty()) {
      result = Status::OutOfSpace("cleaner found no victim segments");
      break;
    }

    // Read phase: collect the still-live pages of every victim, then free
    // the victims. GC'd pages carry their segment's up2 (§5.2.2 "Garbage
    // Collection Writes").
    std::vector<MovedPage> moved;
    uint64_t reclaimed = HarvestVictims(victims, &moved);
    ++stats_.cleanings;

    if (config_.separate_gc_writes) {
      if (oracle_) {
        std::stable_sort(moved.begin(), moved.end(),
                         [](const MovedPage& a, const MovedPage& b) {
                           return a.exact_upf > b.exact_upf;
                         });
      } else {
        std::stable_sort(moved.begin(), moved.end(),
                         [](const MovedPage& a, const MovedPage& b) {
                           return a.up2 > b.up2;
                         });
      }
    }

    // Write phase: relocate. Placement allocates from the just-freed
    // pool; moved bytes never exceed the freed capacity, but policies
    // that fan pages out across many logs (multi-log) can transiently
    // need more *open* segments than one cycle frees. On out-of-space,
    // harvest one more victim and retry rather than declaring the device
    // full.
    bool place_failed = false;
    int emergencies = 0;
    for (size_t i = 0; i < moved.size();) {
      const MovedPage& mp = moved[i];
      Status s = PlacePage(mp.page, mp.bytes, mp.up2, mp.exact_upf,
                           mp.est_upf, /*is_gc=*/true);
      if (s.ok()) {
        // The copy is placed: the page's table location now points at
        // the destination, so the source victim's needed entry for it
        // reads as recorded (SuccessorRecorded) from here on.
        ++i;
        continue;
      }
      std::vector<SegmentId> extra;
      if (s.code() == Status::Code::kOutOfSpace && emergencies < 8) {
        policy_->SelectVictims(*this, triggering_log, 1, &extra);
      }
      if (extra.empty()) {
        result = s;
        place_failed = true;
        break;
      }
      ++emergencies;
      reclaimed += HarvestVictims(extra, &moved);  // then retry moved[i]
    }
    if (place_failed) break;

    if (reclaimed == 0 && free_list_.size() <= free_before) {
      if (++no_progress_cycles >= 3) {
        result = Status::OutOfSpace("cleaning made no progress");
        break;
      }
    } else {
      no_progress_cycles = 0;
    }
  }

  // Victims whose moved pages all landed in segments that sealed during
  // the cycle need not wait for the next organic seal. In checkpoint
  // mode release eagerly even while destinations are still open: the
  // write phase placed every moved page, so one checkpoint round makes
  // the copies durable and the free records (of victims without
  // unresolved successors) can follow — keeping the free pool clear of
  // withheld slots, so the allocation skip above rarely has to divert.
  if (CheckpointingEnabled()) {
    if (!reclaim_queue_.empty() && result.ok()) {
      Status r = ReleaseSafeReclaims();
      if (!r.ok()) result = r;
    }
  } else if (gc_dirty_open_.empty() && !reclaim_queue_.empty()) {
    Status r = ReleaseReclaims();
    if (result.ok() && !r.ok()) result = r;
  }

  cleaning_ = false;
  return result;
}

Status StoreShard::Recover() {
  BackendRecovery log;
  Status s = backend_->Scan(&log);
  if (!s.ok()) return s;

  // Location of one recovered entry, for newest-wins resolution below.
  struct Placed {
    PageId page;
    SegmentId segment;  // kInvalidSegment for a re-homed entry
    uint32_t index;
    uint64_t seq;
    uint32_t bytes;
    UpdateCount last_update;
    double up2;
    double exact_upf;
    /// Log position of the containing record, breaking equal-seq ties:
    /// a re-homing record must beat the victim slot's original seal
    /// (whose payload may be torn by the reusing occupant's crashing
    /// write), and a materialised slot's own later seal must beat the
    /// re-homing record that seeded it.
    uint64_t ordinal;
    bool rehomed;
  };
  std::vector<Placed> placed;

  // Delta records grouped by slot, already in replay (ordinal) order.
  // They are applied below by walking each surviving base record's
  // chain; a delta orphaned by a later full checkpoint, seal or free of
  // its slot never matches any chain tip and is silently skipped.
  std::unordered_map<SegmentId, std::vector<const BackendSegmentRecord*>>
      deltas_by_slot;
  for (const BackendSegmentRecord& d : log.deltas) {
    if (d.id >= segments_.size()) {
      return Status::Corruption("recovery: delta segment id out of range");
    }
    deltas_by_slot[d.id].push_back(&d);
  }

  // Rebuild each sealed segment exactly as the original run filled it:
  // same entry order, same up2 accumulation, so the seal-time up2 the
  // cleaning policies rank by comes back bit-for-bit.
  std::vector<uint8_t> is_sealed(segments_.size(), 0);
  for (const BackendSegmentRecord& rec : log.segments) {
    if (rec.id >= segments_.size()) {
      return Status::Corruption("recovery: segment id out of range");
    }
    // Assemble the slot's effective entry list: start from the base
    // record, then let each chain link replace everything past its
    // recorded prefix. Entries keep the ordinal of the record that
    // contributed them, so equal-seq ties still break toward the later
    // record exactly as with full checkpoints.
    std::vector<Segment::Entry> entries = rec.entries;
    std::vector<uint64_t> ordinals(entries.size(), rec.ordinal);
    UpdateCount seal_time = rec.seal_time;
    if (rec.checkpoint) {
      auto dit = deltas_by_slot.find(rec.id);
      if (dit != deltas_by_slot.end()) {
        uint64_t tip = rec.ordinal;
        for (const BackendSegmentRecord* d : dit->second) {
          if (d->base_ordinal != tip) continue;  // not a link of this chain
          if (d->prefix_entries > entries.size()) {
            return Status::Corruption(
                "recovery: delta prefix exceeds its chain's entries");
          }
          uint64_t prefix_bytes = 0;
          for (uint64_t i = 0; i < d->prefix_entries; ++i) {
            prefix_bytes += entries[i].bytes;
          }
          if (prefix_bytes != d->suffix_offset) {
            return Status::Corruption(
                "recovery: delta suffix offset does not match its chain");
          }
          entries.resize(d->prefix_entries);
          ordinals.resize(d->prefix_entries);
          entries.insert(entries.end(), d->entries.begin(),
                         d->entries.end());
          ordinals.resize(entries.size(), d->ordinal);
          seal_time = d->seal_time;
          tip = d->ordinal;
        }
      }
    }
    Segment& seg = segments_[rec.id];
    seg.Open(rec.log, rec.source, rec.open_time);
    for (size_t i = 0; i < entries.size(); ++i) {
      const Segment::Entry& e = entries[i];
      if (!seg.HasRoomFor(e.bytes)) {
        return Status::Corruption("recovery: entries overflow segment");
      }
      if (e.page == kInvalidPage) {
        seg.AppendDead(e.bytes, e.up2);
        continue;
      }
      if (!PageTable::Addressable(e.page)) {
        return Status::Corruption("recovery: page id out of range");
      }
      if (!OwnsPage(e.page)) {
        return Status::Corruption(
            "recovery: segment holds a page this shard does not own "
            "(was the store created with a different shard count?)");
      }
      const uint32_t idx =
          seg.Append(e.page, e.bytes, e.up2, e.exact_upf, e.seq,
                     e.last_update);
      placed.push_back(
          Placed{e.page, rec.id, idx, e.seq, e.bytes, e.last_update,
                 e.up2, e.exact_upf, ordinals[i], false});
    }
    seg.Seal(seal_time);
    is_sealed[rec.id] = 1;
  }

  // Re-homed entries compete on equal footing: they name page versions
  // whose only durable copy may be the re-homing record (the victim
  // slot that held them was reused, and a crashing rewrite may have
  // torn its payload).
  for (const BackendSegmentRecord& rec : log.rehomed) {
    for (const Segment::Entry& e : rec.entries) {
      if (e.page == kInvalidPage) continue;
      if (!PageTable::Addressable(e.page)) {
        return Status::Corruption("recovery: page id out of range");
      }
      if (!OwnsPage(e.page)) {
        return Status::Corruption(
            "recovery: re-homing record holds a page this shard does "
            "not own (was the store created with a different shard "
            "count?)");
      }
      placed.push_back(
          Placed{e.page, kInvalidSegment, 0, e.seq, e.bytes, e.last_update,
                 e.up2, e.exact_upf, rec.ordinal, true});
    }
  }

  // Newest version wins, by append sequence, then by log position for
  // equal sequences (see Placed::ordinal); a newer delete tombstone
  // means the page is dead everywhere.
  std::unordered_map<PageId, uint64_t> latest_delete;
  for (const auto& [page, seq] : log.deletes) {
    uint64_t& cur = latest_delete[page];
    cur = std::max(cur, seq);
  }
  std::unordered_map<PageId, const Placed*> winner;
  for (const Placed& p : placed) {
    auto it = latest_delete.find(p.page);
    if (it != latest_delete.end() && it->second > p.seq) continue;
    const Placed*& w = winner[p.page];
    if (w == nullptr || p.seq > w->seq ||
        (p.seq == w->seq && p.ordinal > w->ordinal)) {
      w = &p;
    }
  }
  std::vector<const Placed*> materialize;
  for (const Placed& p : placed) {
    auto it = winner.find(p.page);
    if (it != winner.end() && it->second == &p) {
      if (p.rehomed) {
        // No surviving slot holds this version; give it one below, once
        // the free list is known.
        materialize.push_back(&p);
        continue;
      }
      PageMeta& m = table_.Ensure(p.page);
      m.loc = PageLocation{p.segment, p.index};
      m.bytes = p.bytes;
      m.last_update = p.last_update;
    } else if (!p.rehomed) {
      segments_[p.segment].Kill(p.index, p.exact_upf);
    }
  }

  // Remaining segments are free, lowest id allocated first as in a
  // fresh store.
  free_list_.clear();
  for (uint32_t i = config_.num_segments; i > 0; --i) {
    if (!is_sealed[i - 1]) free_list_.push_back(i - 1);
  }

  unow_ = std::max(unow_, log.unow);
  write_seq_ = std::max(write_seq_, log.max_seq);

  // Materialise surviving re-homed entries into fresh GC segments and
  // re-emit them under real seal records, so the next recovery resolves
  // the same versions from ordinary slots (the new seal outranks the
  // re-homing record by log position — repeated crash/recover cycles
  // stay idempotent). Packed in log order, lowest free slot first.
  auto take_slot = [this](SegmentId* out) -> Status {
    if (!free_list_.empty()) {
      *out = free_list_.back();
      free_list_.pop_back();
      return Status::OK();
    }
    // Every slot is durably recorded. The reuse that forced the
    // re-homing leaves the old victim slot fully dead after resolution
    // (each of its entries lost to the re-homing record or to an
    // earlier superseding record), so free one such slot: its free
    // record erases nothing live and precedes the new seal in the log,
    // mirroring the runtime reuse order.
    for (SegmentId id = 0; id < segments_.size(); ++id) {
      Segment& seg = segments_[id];
      if (seg.state() != SegmentState::kSealed || seg.live_count() != 0) {
        continue;
      }
      Status rs = EmitReclaim(id, unow_);
      if (!rs.ok()) return rs;
      seg.Reset();
      *out = id;
      return Status::OK();
    }
    return Status::Corruption(
        "recovery: no slot available to materialise re-homed entries");
  };
  SegmentId cur = kInvalidSegment;
  for (const Placed* p : materialize) {
    if (cur == kInvalidSegment || !segments_[cur].HasRoomFor(p->bytes)) {
      if (cur != kInvalidSegment) {
        segments_[cur].Seal(unow_);
        Status es = EmitSeal(cur, segments_[cur]);
        if (!es.ok()) return es;
      }
      Status as = take_slot(&cur);
      if (!as.ok()) return as;
      segments_[cur].Open(/*log=*/0, SegmentSource::kGc, unow_);
    }
    const uint32_t idx = segments_[cur].Append(
        p->page, p->bytes, p->up2, p->exact_upf, p->seq, p->last_update);
    PageMeta& m = table_.Ensure(p->page);
    m.loc = PageLocation{cur, idx};
    m.bytes = p->bytes;
    m.last_update = p->last_update;
    ++stats_.rehome_entries_recovered;
  }
  if (cur != kInvalidSegment) {
    segments_[cur].Seal(unow_);
    Status es = EmitSeal(cur, segments_[cur]);
    if (!es.ok()) return es;
  }

  return CheckInvariants();
}

Status StoreShard::CheckInvariants() const {
  // 1. Segment counters match entries.
  for (SegmentId id = 0; id < segments_.size(); ++id) {
    if (!segments_[id].CheckCountersConsistent()) {
      return Status::Corruption("segment counters inconsistent");
    }
  }
  // 2. Free-list segments are in kFree state, uniquely listed.
  std::vector<uint8_t> in_free(segments_.size(), 0);
  for (SegmentId id : free_list_) {
    if (id >= segments_.size()) return Status::Corruption("bad free id");
    if (in_free[id]) return Status::Corruption("duplicate free id");
    in_free[id] = 1;
    if (segments_[id].state() != SegmentState::kFree) {
      return Status::Corruption("free-list segment not free");
    }
  }
  for (SegmentId id = 0; id < segments_.size(); ++id) {
    if (segments_[id].state() == SegmentState::kFree && !in_free[id]) {
      return Status::Corruption("free segment missing from free list");
    }
  }
  // 3. Every open segment is registered as the open segment of its
  // (log, stream); none may leak outside the map.
  {
    size_t open_count = 0;
    for (const Segment& s : segments_) {
      open_count += (s.state() == SegmentState::kOpen) ? 1 : 0;
    }
    if (open_count != open_segments_.size()) {
      return Status::Corruption("open segment not tracked in map");
    }
    for (const auto& [key, id] : open_segments_) {
      (void)key;
      if (segments_[id].state() != SegmentState::kOpen) {
        return Status::Corruption("tracked open segment not open");
      }
    }
  }
  // 4. Every present page owned by this shard points at a live entry
  // holding its id, and every live entry is pointed at by exactly its
  // page. (The page table is shared; pages of other shards point into
  // their own shard's segments and are skipped here.)
  uint64_t live_entries = 0;
  for (const Segment& s : segments_) live_entries += s.live_count();
  uint64_t present_in_segments = 0;
  for (PageId p = 0; p < table_.Size(); ++p) {
    if (!OwnsPage(p)) continue;
    const PageMeta& m = table_.Get(p);
    if (!m.loc.Present()) continue;
    if (m.loc.InBuffer()) {
      if (m.loc.index >= buffer_.Count()) {
        return Status::Corruption("buffer slot out of range");
      }
      if (buffer_.Get(m.loc.index).page != p) {
        return Status::Corruption("buffer slot does not hold page");
      }
      continue;
    }
    ++present_in_segments;
    if (m.loc.segment >= segments_.size()) {
      return Status::Corruption("page points at bad segment");
    }
    const Segment& s = segments_[m.loc.segment];
    if (s.state() == SegmentState::kFree) {
      return Status::Corruption("page points at free segment");
    }
    if (m.loc.index >= s.entries().size()) {
      return Status::Corruption("page entry index out of range");
    }
    const Segment::Entry& e = s.entries()[m.loc.index];
    if (e.page != p) return Status::Corruption("entry does not hold page");
    if (e.bytes != m.bytes) return Status::Corruption("entry size mismatch");
  }
  if (present_in_segments != live_entries) {
    return Status::Corruption("live entry count != present page count");
  }
  return Status::OK();
}

}  // namespace lss
