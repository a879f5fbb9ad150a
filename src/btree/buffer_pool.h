#ifndef LSS_BTREE_BUFFER_POOL_H_
#define LSS_BTREE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "btree/eviction_policy.h"
#include "btree/page.h"
#include "btree/pager.h"
#include "core/types.h"
#include "util/mpsc_queue.h"
#include "util/rng.h"

namespace lss {

/// How a PageRef acquires the page latch of the frame it pins. The latch
/// is a reader-writer lock stored in the frame state next to the pin
/// word; a latch is only ever held while the frame is pinned (pin first,
/// latch second; unlatch before unpin), so eviction — which claims only
/// frames with zero pins — can never recycle a latched frame.
enum class LatchMode : uint8_t {
  kNone = 0,       ///< pin only; caller synchronises the bytes itself
  kShared = 1,     ///< shared page latch: concurrent readers
  kExclusive = 2,  ///< exclusive page latch: sole writer of the bytes
};

/// Buffer cache over a Pager, the component that shapes the page write
/// I/O stream the paper's TPC-C experiment consumes ("The buffer cache
/// size was set at 4GB", §6.3). Dirty pages are written back on eviction
/// (and on checkpoints/flushes); each write-back is reported to the
/// observer, which is how the cleaning-simulator trace is collected.
///
/// Concurrency. The pool is latch-striped: frames are divided into N
/// partitions and a page hashes (SplitMix64) to exactly one partition,
/// whose mutex serialises miss handling, eviction and write-back on its
/// frames. Distinct partitions proceed fully in parallel; a page's pager
/// I/O only ever happens while the pool holds the frame exclusively, so
/// the pager needs no per-page locking of its own.
///
/// Cache hits and unpins take NO latch, whatever the replacement policy.
/// A hit finds its frame through a per-partition lock-free hint table,
/// pins it with an atomic increment, validates the page identity, and
/// sets the frame's reference bit; eviction claims a frame by CAS-ing its
/// pin word to a reserved "evicting" value, so a racing latch-free pin
/// either lands first (the CAS fails and the policy is asked again) or
/// observes the claim and backs off to the latched path. The latch is
/// taken only on miss/eviction, AllocatePinned, FlushAll and a full
/// access-event queue — latch_acquisitions() counts exactly those, which
/// is how bench/buffer_pool proves hits are latch-free.
///
/// Replacement is a policy seam (btree/eviction_policy.h), selected per
/// pool at construction:
///  - kExactLru (default): exact LRU per partition. Each latch-free hit
///    and each unpin to zero pushes an access event {frame, page, kind}
///    into the partition's bounded FIFO (util/mpsc_queue.h); whoever next
///    takes the latch replays the queue into the policy, in order, before
///    doing anything else, and a pusher that finds the queue full takes
///    the latch to replay it. At one thread the policy therefore sees the
///    fully latched call sequence and the victims are bit-for-bit the
///    pre-seam pool's (pinned by a determinism test at 1 partition).
///  - kClock: consumes no events; the sweep reads the reference bits.
///  - kTwoQ: scan-resistant (see the policy); fed by access events like
///    exact LRU.
///
/// Frame-content contract: the pool synchronises its own metadata, not
/// the cached bytes. Each frame carries a reader-writer page latch
/// (acquired through PageRef's LatchMode, always under a pin) that
/// callers use to order accesses to the same page's bytes — the B+-tree
/// couples these latches during descent. Callers that pin with
/// LatchMode::kNone must order accesses themselves (quiescent phases,
/// single-threaded use, or an external happens-before chain). Eviction
/// and FlushAll need no latch awareness: both claim a frame only when
/// its pin count is zero, and a latch is only ever held under a pin.
/// FlushAll skips frames that are pinned at flush time — their bytes are
/// in active use — leaving them dirty for a later eviction or flush.
class BufferPool {
 public:
  /// Called with the page number of every write-back to the pager. May
  /// be invoked concurrently from any thread using the pool.
  using WriteObserver = std::function<void(PageNo)>;

  /// `capacity_pages` must be >= 8 (the B+-tree pins a few pages at
  /// once). `partitions` of 0 picks automatically: enough stripes to
  /// scale, but never fewer than 64 frames per stripe so concurrent
  /// pins cannot exhaust one (a stripe asserts when every frame in it
  /// is pinned); in particular every capacity in [8, 127] yields exactly
  /// one stripe. An explicit `partitions` request is honoured but
  /// clamped so a stripe never holds fewer than 8 frames.
  BufferPool(Pager* pager, size_t capacity_pages,
             WriteObserver observer = nullptr, uint32_t partitions = 0,
             EvictionPolicyKind policy = EvictionPolicyKind::kExactLru);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Pins `page` in the cache and returns its frame bytes. The caller
  /// must Unpin exactly once (prefer PageRef). Never returns null.
  uint8_t* Pin(PageNo page);

  /// Releases one pin; `dirty` marks the frame as modified.
  void Unpin(PageNo page, bool dirty);

  /// Allocates a fresh page (through the pager) and pins it dirty-able.
  PageNo AllocatePinned(uint8_t** data_out);

  /// Writes back every dirty unpinned frame (a checkpoint): a
  /// cross-partition barrier that visits every stripe in turn. Frames
  /// stay cached. Pinned frames are skipped (see class comment).
  void FlushAll();

  size_t capacity() const { return capacity_; }
  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }
  EvictionPolicyKind policy() const { return policy_kind_; }

  // Counters, summed across partitions (approximate while threads are
  // running, exact when the pool is quiescent).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t write_backs() const;
  /// Partition-latch acquisitions by the operation paths (Pin misses and
  /// the rare hits that fall back to the latch, AllocatePinned, FlushAll
  /// — one per stripe visited — and full access-event queues). Counter
  /// reads themselves are not counted, so over a pure-hit phase shorter
  /// than kAccessQueueCapacity events per partition the delta is 0.
  uint64_t latch_acquisitions() const;

  /// Access events (a hit or an unpin to zero pins is one event each) a
  /// partition queues before a pusher must take the latch to replay them.
  static constexpr uint32_t kAccessQueueCapacity = 4096;

  size_t PinnedFrames() const;

 private:
  // Pin-word layout: the low bits count pins; kEvicting marks a frame an
  // evictor (or flusher) holds exclusively. Latch-free pinners that
  // fetch_add into a claimed word see the flag in their old value and
  // back off (their transient +1 is self-corrected), so data bytes are
  // never touched concurrently with an eviction's write-back/reload.
  static constexpr uint32_t kEvicting = 1u << 31;

  struct Frame {
    std::atomic<PageNo> page{kInvalidPageNo};
    std::vector<uint8_t> data;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    std::atomic<uint8_t> ref{0};  // reference bit (CLOCK); set on access
    // Page latch (see LatchMode). Held only while pins > 0, so the latch
    // always refers to the page currently cached in this frame.
    std::shared_mutex latch;
  };

  // Lock-free page -> frame-index hint table. One atomic word per slot
  // packs (page, idx); writers run under the partition latch, readers
  // probe with acquire loads. A hint is advisory: the latch-free hit path
  // re-validates against the frame's own page word after pinning, so a
  // stale hint costs a fallback to the latched path, never a wrong frame.
  static constexpr uint64_t kHintEmpty = ~0ull;
  static constexpr uint64_t kHintTombstone = ~0ull - 1;

  // A latch-free access, replayed into the policy under the latch. Eight
  // bytes, so a queue cell is sixteen.
  struct AccessEvent {
    uint32_t frame : 31;
    uint32_t unpin : 1;  // OnUnpin; otherwise OnHit
    PageNo page;
  };
  static_assert(sizeof(AccessEvent) == 8, "access events are 8 bytes");

  // One latch stripe: a share of the frames plus all the state needed to
  // run them as an independent cache. Cache-line aligned so stripe
  // mutexes do not false-share.
  struct alignas(64) Partition : public FrameStateView {
    std::mutex mu;
    std::vector<Frame> frames;
    std::unordered_map<PageNo, size_t> page_to_frame;  // authoritative
    std::vector<size_t> free_frames;
    std::unique_ptr<EvictionPolicy> policy;

    // Hint table: power-of-two sized, at least 4x frames, so probe chains
    // stay short at <= 25% load.
    std::vector<std::atomic<uint64_t>> hints;
    uint64_t hint_mask = 0;
    size_t hint_tombstones = 0;

    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> write_backs{0};
    std::atomic<uint64_t> latch_acquisitions{0};

    // Access events for policies that consume them; popped under mu. On
    // its own cache lines: every latch-free access pushes here.
    alignas(64) BoundedMpscQueue<AccessEvent, kAccessQueueCapacity> events;

    // FrameStateView (victim selection; runs under mu).
    size_t frame_count() const override { return frames.size(); }
    bool Pinned(size_t idx) const override {
      return frames[idx].pins.load(std::memory_order_relaxed) != 0;
    }
    bool TestClearRef(size_t idx) override {
      Frame& f = frames[idx];
      if (f.ref.load(std::memory_order_relaxed) == 0) return false;
      f.ref.store(0, std::memory_order_relaxed);
      return true;
    }
  };

  Partition& PartitionFor(PageNo page) {
    return *parts_[SplitMix64(page) % parts_.size()];
  }

  // The frame the hint table maps `page` to, or nullptr. Advisory: the
  // caller validates against the frame's own page word.
  Frame* HintLookup(Partition& part, PageNo page);

  // Latch-free hit path: returns the pinned frame, or nullptr when the
  // page must go through the latched path (not hinted, mid-eviction, or
  // a stale hint).
  Frame* TryLatchFreeHit(Partition& part, PageNo page);

  // Takes part.mu for an operation path: counts the acquisition and
  // replays the queued access events, so the policy is current before
  // anything else runs under the latch.
  std::unique_lock<std::mutex> Latch(Partition& part);

  // Queues a hit on (or the last unpin of) frame `f` holding `page` as
  // an access event; when the queue is full, takes the latch, which
  // replays the queue, and applies this event after it.
  void RecordAccess(Partition& part, Frame& f, PageNo page, bool unpin);
  // Under part.mu: feeds one event to the policy, unless the frame has
  // since been recycled for another page.
  void ApplyEvent(Partition& part, const AccessEvent& event);

  // Pin/unpin by frame identity (PageRef's backend). PinFrame is Pin()
  // returning the frame itself so the caller can reach its page latch;
  // UnpinFrame skips the page->frame lookup a plain Unpin needs.
  Frame& PinFrame(PageNo page);
  void UnpinFrame(Frame& f, PageNo page, bool dirty);

  static void LatchFrame(Frame& f, LatchMode mode) {
    if (mode == LatchMode::kShared) {
      f.latch.lock_shared();
    } else if (mode == LatchMode::kExclusive) {
      f.latch.lock();
    }
  }
  static void UnlatchFrame(Frame& f, LatchMode mode) {
    if (mode == LatchMode::kShared) {
      f.latch.unlock_shared();
    } else if (mode == LatchMode::kExclusive) {
      f.latch.unlock();
    }
  }

  // Hint-table maintenance; all run under part.mu.
  void HintInsert(Partition& part, PageNo page, size_t idx);
  void HintErase(Partition& part, PageNo page);
  void HintRebuild(Partition& part);

  // All of the below run under part.mu. PinLocked returns the pinned
  // frame's index within the partition.
  size_t FrameFor(Partition& part, PageNo page, bool load_from_pager);
  void WriteBack(Partition& part, size_t frame_idx);
  size_t EvictOne(Partition& part);  // returns the freed, claimed frame
  size_t PinLocked(Partition& part, PageNo page, bool load_from_pager);

  friend class PageRef;

  Pager* pager_;
  size_t capacity_;
  WriteObserver observer_;
  EvictionPolicyKind policy_kind_;
  bool queue_events_ = false;  // the policy consumes access events
  std::vector<std::unique_ptr<Partition>> parts_;
};

/// RAII pin on a buffer-pool page, optionally holding the frame's page
/// latch for its lifetime (LatchMode; default is a plain pin). Move-only.
/// Acquisition order is pin-then-latch; Release unlatches before it
/// unpins, so the latch always covers a pinned (eviction-proof) frame.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageNo page, LatchMode mode = LatchMode::kNone)
      : pool_(pool), page_(page), mode_(mode),
        frame_(&pool->PinFrame(page)) {
    BufferPool::LatchFrame(*frame_, mode_);
    data_ = frame_->data.data();
  }

  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    data_ = o.data_;
    dirty_ = o.dirty_;
    mode_ = o.mode_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.frame_ = nullptr;
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  ~PageRef() { Release(); }

  /// Frame bytes (kBtreePageSize of them).
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  PageNo page() const { return page_; }
  LatchMode mode() const { return mode_; }
  bool Valid() const { return data_ != nullptr; }

  /// Marks the page dirty; it will be written back on eviction/flush.
  void MarkDirty() { dirty_ = true; }

  /// Explicit early release (also done by the destructor).
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) {
      BufferPool::UnlatchFrame(*frame_, mode_);
      pool_->UnpinFrame(*frame_, page_, dirty_);
    }
    pool_ = nullptr;
    data_ = nullptr;
    frame_ = nullptr;
    dirty_ = false;
    mode_ = LatchMode::kNone;
  }

 private:
  friend class BufferPool;
  BufferPool* pool_ = nullptr;
  PageNo page_ = kInvalidPageNo;
  uint8_t* data_ = nullptr;
  bool dirty_ = false;
  LatchMode mode_ = LatchMode::kNone;
  BufferPool::Frame* frame_ = nullptr;
};

}  // namespace lss

#endif  // LSS_BTREE_BUFFER_POOL_H_
