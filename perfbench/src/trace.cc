#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace {

// Marks "inside a root that was not sampled": its descendants are timed
// but not kept as spans, and they are not roots themselves.
constexpr uint64_t kUnsampledParent = std::numeric_limits<uint64_t>::max();

std::atomic<uint64_t> g_generation{0};

struct ThreadState {
  uint64_t generation = 0;  // which Tracer `buf` belongs to
  ThreadBuffer* buf = nullptr;
  uint64_t current = 0;  // innermost open span, 0 outside any root
  bool sampled = false;  // innermost open span is kept
  uint64_t roots = 0;    // roots opened on this thread (sampling counter)
  bool saw_select = false;
};

thread_local ThreadState tls;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStoreWrite: return "store.write";
    case SpanKind::kStoreRead: return "store.read";
    case SpanKind::kTpccTxn: return "tpcc.txn";
    case SpanKind::kWritebackStore: return "writeback.store";
    case SpanKind::kPolicySelect: return "policy.select";
    case SpanKind::kBackendSeal: return "backend.seal";
    case SpanKind::kBackendSync: return "backend.sync";
    case SpanKind::kBackendCheckpoint: return "backend.checkpoint";
    case SpanKind::kBackendReclaim: return "backend.reclaim";
    case SpanKind::kBackendRead: return "backend.read";
    case SpanKind::kBackendOther: return "backend.other";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(uint32_t sample_every)
    : sample_every_(sample_every < 1 ? 1 : sample_every),
      generation_(g_generation.fetch_add(1) + 1) {}

Tracer::~Tracer() = default;

ThreadBuffer& Tracer::Local() {
  if (tls.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->index = static_cast<uint32_t>(buffers_.size() - 1);
    tls = ThreadState{};
    tls.generation = generation_;
    tls.buf = buffers_.back().get();
  }
  return *tls.buf;
}

bool Tracer::TakeSawSelect() {
  const bool saw = tls.saw_select;
  tls.saw_select = false;
  return saw;
}

void Tracer::MarkSelect() { tls.saw_select = true; }

LatencyHistogram Tracer::Durations(SpanKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyHistogram out;
  for (const auto& b : buffers_) {
    out.Merge(b->durations[static_cast<int>(kind)]);
  }
  return out;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

PolicyCounters Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyCounters t;
  for (const auto& b : buffers_) {
    t.place_user += b->policy.place_user;
    t.place_gc += b->policy.place_gc;
    t.place_ns += b->policy.place_ns;
    t.victims_selected += b->policy.victims_selected;
  }
  return t;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,thread,tag,start_ns,end_ns\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%llu,%llu,%s,%u,%u,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), SpanName(s.kind),
                 s.thread, s.tag, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, uint32_t tag)
    : kind_(kind), tag_(tag) {
  if (tracer == nullptr || !tracer->active()) return;
  tracer_ = tracer;
  buf_ = &tracer->Local();
  parent_ = tls.current;
  was_sampled_ = tls.sampled;
  keep_ = parent_ == 0 ? tls.roots++ % tracer->sample_every_ == 0
                       : tls.sampled;
  if (keep_) {
    id_ = (static_cast<uint64_t>(buf_->index + 1) << 40) | buf_->next_id++;
    tls.current = id_;
  } else {
    tls.current = kUnsampledParent;
  }
  tls.sampled = keep_;
  start_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  buf_->durations[static_cast<int>(kind_)].Record(
      static_cast<uint64_t>(end - start_));
  if (keep_) {
    buf_->spans.push_back(
        Span{id_, parent_, start_, end, buf_->index, tag_, kind_});
  }
  tls.current = parent_;
  tls.sampled = was_sampled_;
}

namespace {

class TracedPolicy : public lss::CleaningPolicy {
 public:
  TracedPolicy(std::unique_ptr<lss::CleaningPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }

  void SelectVictims(const lss::StoreShard& shard, uint32_t triggering_log,
                     size_t max_victims,
                     std::vector<lss::SegmentId>* out) const override {
    const size_t before = out->size();
    {
      ScopedSpan span(tracer_, SpanKind::kPolicySelect);
      inner_->SelectVictims(shard, triggering_log, max_victims, out);
    }
    if (tracer_->active()) {
      tracer_->Local().policy.victims_selected += out->size() - before;
    }
    tracer_->MarkSelect();
  }

  uint32_t PlacementLog(const lss::StoreShard& shard, lss::PageId page,
                        bool is_gc, double upf_estimate) override {
    if (!tracer_->active()) {
      return inner_->PlacementLog(shard, page, is_gc, upf_estimate);
    }
    const int64_t start = NowNs();
    const uint32_t log = inner_->PlacementLog(shard, page, is_gc, upf_estimate);
    PolicyCounters& c = tracer_->Local().policy;
    c.place_ns += static_cast<uint64_t>(NowNs() - start);
    ++(is_gc ? c.place_gc : c.place_user);
    return log;
  }

  size_t PreferredBatch(size_t config_batch) const override {
    return inner_->PreferredBatch(config_batch);
  }

 private:
  std::unique_ptr<lss::CleaningPolicy> inner_;
  Tracer* tracer_;
};

class TracedBackend : public lss::SegmentBackend {
 public:
  TracedBackend(std::unique_ptr<lss::SegmentBackend> inner, Tracer* tracer,
                uint32_t shard)
      : inner_(std::move(inner)), tracer_(tracer), shard_(shard) {}

  lss::Status Open(const lss::StoreConfig& config, uint32_t shard_id,
                   uint32_t num_shards, lss::StoreStats* stats,
                   bool recover) override {
    return inner_->Open(config, shard_id, num_shards, stats, recover);
  }
  lss::Status SealSegment(const lss::BackendSegmentRecord& record) override {
    ScopedSpan span(tracer_, SpanKind::kBackendSeal, shard_);
    return inner_->SealSegment(record);
  }
  lss::Status Checkpoint(const lss::BackendSegmentRecord& record) override {
    ScopedSpan span(tracer_, SpanKind::kBackendCheckpoint, shard_);
    return inner_->Checkpoint(record);
  }
  lss::Status CheckpointDelta(
      const lss::BackendSegmentRecord& record) override {
    ScopedSpan span(tracer_, SpanKind::kBackendCheckpoint, shard_);
    return inner_->CheckpointDelta(record);
  }
  lss::Status RehomeEntries(const lss::BackendSegmentRecord& record) override {
    ScopedSpan span(tracer_, SpanKind::kBackendOther, shard_);
    return inner_->RehomeEntries(record);
  }
  lss::Status Sync() override {
    ScopedSpan span(tracer_, SpanKind::kBackendSync, shard_);
    return inner_->Sync();
  }
  void SetDeferredSync(bool on) override { inner_->SetDeferredSync(on); }
  void Abandon() override { inner_->Abandon(); }
  lss::Status ReclaimSegment(lss::SegmentId id,
                             lss::UpdateCount unow) override {
    ScopedSpan span(tracer_, SpanKind::kBackendReclaim, shard_);
    return inner_->ReclaimSegment(id, unow);
  }
  lss::Status RecordDelete(lss::PageId page, uint64_t seq,
                           lss::UpdateCount unow) override {
    ScopedSpan span(tracer_, SpanKind::kBackendOther, shard_);
    return inner_->RecordDelete(page, seq, unow);
  }
  lss::Status ReadPagePayload(lss::SegmentId id, uint64_t offset,
                              lss::PageId page, uint32_t bytes,
                              std::vector<uint8_t>* out) override {
    ScopedSpan span(tracer_, SpanKind::kBackendRead, shard_);
    return inner_->ReadPagePayload(id, offset, page, bytes, out);
  }
  lss::Status Scan(lss::BackendRecovery* out) override {
    return inner_->Scan(out);
  }
  lss::Status Close() override { return inner_->Close(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lss::SegmentBackend> inner_;
  Tracer* tracer_;
  uint32_t shard_;
};

}  // namespace

std::unique_ptr<lss::CleaningPolicy> TracePolicy(
    std::unique_ptr<lss::CleaningPolicy> inner, Tracer* tracer) {
  return std::make_unique<TracedPolicy>(std::move(inner), tracer);
}

std::unique_ptr<lss::SegmentBackend> TraceBackend(
    std::unique_ptr<lss::SegmentBackend> inner, Tracer* tracer,
    uint32_t shard) {
  return std::make_unique<TracedBackend>(std::move(inner), tracer, shard);
}

}  // namespace perfbench
