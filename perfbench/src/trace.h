// Tracing for the benchmark's per-layer run. Everything here observes
// the library from outside: spans are opened around calls into a layer's
// public functions, and the two seams ShardedStore exposes (PolicyFactory,
// BackendFactory) are given forwarding decorators that time each call.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/io_backend.h"
#include "metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span boundaries. Roots are client operations; the rest are calls into
/// a layer made while a root is open on the same thread, except the
/// backend kinds, which in async-seal mode run on a shard's pipeline I/O
/// thread and are then roots of their own, tagged with the shard.
enum class SpanKind : uint8_t {
  kStoreWrite,
  kStoreRead,
  kTpccTxn,
  kWritebackStore,
  kPolicySelect,
  kBackendSeal,
  kBackendSync,
  kBackendCheckpoint,  // full and delta checkpoints
  kBackendReclaim,
  kBackendRead,
  kBackendOther,  // re-homing records and delete tombstones
  kCount,
};

const char* SpanName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  uint32_t tag = 0;  // shard id for backend spans
  SpanKind kind = SpanKind::kCount;
};

/// Policy calls kept as counts rather than spans.
struct PolicyCounters {
  uint64_t place_user = 0;  // PlacementLog calls for user writes
  uint64_t place_gc = 0;    // ... and for cleaner relocations
  uint64_t place_ns = 0;    // total time in PlacementLog
  uint64_t victims_selected = 0;
};

/// Per-thread recording buffer. Owned by the Tracer so it outlives the
/// library's pipeline threads, which exit when their store closes.
struct ThreadBuffer {
  uint32_t index = 0;
  LatencyHistogram durations[static_cast<int>(SpanKind::kCount)];
  std::vector<Span> spans;
  PolicyCounters policy;
  uint64_t next_id = 1;
};

/// Collects call durations (every call while active) and spans (one root
/// in `sample_every` per thread, with all its descendants). Recording is
/// lock-free per thread; a thread registers its buffer once.
class Tracer {
 public:
  explicit Tracer(uint32_t sample_every);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording happens only while active, so set-up and warm-up leave
  /// nothing behind.
  void SetActive(bool on) { active_.store(on, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }
  uint32_t sample_every() const { return sample_every_; }

  /// The calling thread's buffer.
  ThreadBuffer& Local();

  /// Clears the calling thread's "saw SelectVictims" mark and returns
  /// whether it was set: a Write is a cleaning write when the policy
  /// decorator ran SelectVictims on its thread during the call.
  bool TakeSawSelect();
  void MarkSelect();

  /// Merged view of every thread's buffer. Call once all recording
  /// threads are quiet.
  LatencyHistogram Durations(SpanKind kind) const;
  std::vector<Span> Spans() const;
  PolicyCounters Totals() const;

  /// Writes the spans as CSV (id,parent,name,thread,tag,start_ns,end_ns).
  bool WriteSpans(const std::string& path) const;

 private:
  friend class ScopedSpan;
  const uint32_t sample_every_;
  const uint64_t generation_;
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;  // guards buffers_ registration and merging
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Times one call into a layer. With a null or inactive tracer it does
/// nothing. The duration is always recorded; a span is kept when this is
/// a sampled root or a descendant of one.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint32_t tag = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  ThreadBuffer* buf_ = nullptr;
  SpanKind kind_;
  uint32_t tag_ = 0;
  int64_t start_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool keep_ = false;
  bool was_sampled_ = false;
};

/// CleaningPolicy decorator: times SelectVictims as a child span, counts
/// PlacementLog calls and their total time, and forwards everything.
std::unique_ptr<lss::CleaningPolicy> TracePolicy(
    std::unique_ptr<lss::CleaningPolicy> inner, Tracer* tracer);

/// SegmentBackend decorator: times every persisting and reading call as
/// a span tagged with `shard`, and forwards everything, including the
/// hooks that carry no timing (SetDeferredSync, Abandon, Scan).
std::unique_ptr<lss::SegmentBackend> TraceBackend(
    std::unique_ptr<lss::SegmentBackend> inner, Tracer* tracer,
    uint32_t shard);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
