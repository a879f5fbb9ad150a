#include "btree/buffer_pool.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace lss {

namespace {

// Auto-partitioning: scale stripes with capacity but keep >= 64 frames
// per stripe — the worst case has every worker thread's transient pins
// (a handful each) hashing into one stripe, and a stripe with zero
// unpinned frames cannot evict. The floor means every capacity below 128
// (in particular the asserted minimum 8 up to 127) runs as exactly one
// partition — a single exact cache, the pre-striping behaviour.
// Power-of-two counts keep the hash cheap to reason about; 64 stripes
// are plenty for any thread count we run.
uint32_t AutoPartitions(size_t capacity_pages) {
  uint32_t parts = 1;
  while (parts < 64 && capacity_pages / (parts * 2) >= 64) parts *= 2;
  return parts;
}

uint64_t PackHint(PageNo page, size_t idx) {
  return (static_cast<uint64_t>(page) << 32) | static_cast<uint32_t>(idx);
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages,
                       WriteObserver observer, uint32_t partitions,
                       EvictionPolicyKind policy)
    : pager_(pager), capacity_(capacity_pages),
      observer_(std::move(observer)), policy_kind_(policy) {
  assert(pager != nullptr);
  assert(capacity_pages >= 8);
  if (partitions == 0) partitions = AutoPartitions(capacity_pages);
  // An explicit request is clamped to >= 8 frames per stripe (the
  // B+-tree's transient pin budget).
  if (partitions > capacity_pages / 8) {
    partitions = static_cast<uint32_t>(capacity_pages / 8);
  }
  if (partitions == 0) partitions = 1;
  parts_.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    auto part = std::make_unique<Partition>();
    // Distribute capacity evenly; early stripes absorb the remainder.
    const size_t n = capacity_ / partitions +
                     (p < capacity_ % partitions ? 1 : 0);
    part->frames = std::vector<Frame>(n);
    for (Frame& f : part->frames) f.data.resize(kBtreePageSize);
    part->free_frames.reserve(n);
    for (size_t i = n; i > 0; --i) part->free_frames.push_back(i - 1);
    part->policy = MakeEvictionPolicy(policy, part.get());
    queue_events_ = part->policy->ConsumesAccessEvents();
    // >= 4x frames, power of two: live hints stay <= 25% of the table
    // and rebuilds cap tombstones at another 25%, so probes always
    // terminate at an empty slot.
    size_t cap = 16;
    while (cap < 4 * n) cap *= 2;
    part->hints = std::vector<std::atomic<uint64_t>>(cap);
    for (auto& h : part->hints) {
      h.store(kHintEmpty, std::memory_order_relaxed);
    }
    part->hint_mask = cap - 1;
    parts_.push_back(std::move(part));
  }
}

BufferPool::~BufferPool() {
  assert(PinnedFrames() == 0 && "page pins leaked");
}

size_t BufferPool::PinnedFrames() const {
  size_t n = 0;
  for (const auto& part : parts_) {
    std::lock_guard<std::mutex> lock(part->mu);
    for (const Frame& f : part->frames) {
      n += (f.pins.load(std::memory_order_relaxed) & ~kEvicting) != 0 ? 1 : 0;
    }
  }
  return n;
}

uint64_t BufferPool::hits() const {
  uint64_t n = 0;
  for (const auto& part : parts_) {
    n += part->hits.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t BufferPool::misses() const {
  uint64_t n = 0;
  for (const auto& part : parts_) {
    n += part->misses.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t BufferPool::evictions() const {
  uint64_t n = 0;
  for (const auto& part : parts_) {
    n += part->evictions.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t BufferPool::write_backs() const {
  uint64_t n = 0;
  for (const auto& part : parts_) {
    n += part->write_backs.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t BufferPool::latch_acquisitions() const {
  uint64_t n = 0;
  for (const auto& part : parts_) {
    n += part->latch_acquisitions.load(std::memory_order_relaxed);
  }
  return n;
}

// --- Hint table (writers under part.mu) ---------------------------------

void BufferPool::HintInsert(Partition& part, PageNo page, size_t idx) {
  if (part.hint_tombstones > part.hints.size() / 4) HintRebuild(part);
  uint64_t s = SplitMix64(page) & part.hint_mask;
  size_t tomb = static_cast<size_t>(-1);
  for (;;) {
    const uint64_t slot = part.hints[s].load(std::memory_order_relaxed);
    if (slot == kHintEmpty) break;
    if (slot == kHintTombstone) {
      if (tomb == static_cast<size_t>(-1)) tomb = s;
    } else if (static_cast<PageNo>(slot >> 32) == page) {
      part.hints[s].store(PackHint(page, idx), std::memory_order_release);
      return;
    }
    s = (s + 1) & part.hint_mask;
  }
  if (tomb != static_cast<size_t>(-1)) {
    s = tomb;
    --part.hint_tombstones;
  }
  part.hints[s].store(PackHint(page, idx), std::memory_order_release);
}

void BufferPool::HintErase(Partition& part, PageNo page) {
  uint64_t s = SplitMix64(page) & part.hint_mask;
  for (size_t probe = 0; probe <= part.hint_mask; ++probe) {
    const uint64_t slot = part.hints[s].load(std::memory_order_relaxed);
    if (slot == kHintEmpty) return;
    if (slot != kHintTombstone && static_cast<PageNo>(slot >> 32) == page) {
      part.hints[s].store(kHintTombstone, std::memory_order_release);
      ++part.hint_tombstones;
      return;
    }
    s = (s + 1) & part.hint_mask;
  }
}

void BufferPool::HintRebuild(Partition& part) {
  // Concurrent latch-free readers may transiently miss entries while the
  // table is repopulated; they fall back to the latched path and block on
  // part.mu, which we hold — correctness is unaffected.
  for (auto& h : part.hints) h.store(kHintEmpty, std::memory_order_relaxed);
  part.hint_tombstones = 0;
  for (const auto& entry : part.page_to_frame) {
    uint64_t s = SplitMix64(entry.first) & part.hint_mask;
    while (part.hints[s].load(std::memory_order_relaxed) != kHintEmpty) {
      s = (s + 1) & part.hint_mask;
    }
    part.hints[s].store(PackHint(entry.first, entry.second),
                        std::memory_order_release);
  }
}

// --- Latch-free hit and unpin paths ------------------------------------

BufferPool::Frame* BufferPool::HintLookup(Partition& part, PageNo page) {
  uint64_t s = SplitMix64(page) & part.hint_mask;
  for (size_t probe = 0; probe <= part.hint_mask; ++probe) {
    const uint64_t slot = part.hints[s].load(std::memory_order_acquire);
    if (slot == kHintEmpty) return nullptr;
    if (slot != kHintTombstone && static_cast<PageNo>(slot >> 32) == page) {
      return &part.frames[static_cast<uint32_t>(slot)];
    }
    s = (s + 1) & part.hint_mask;
  }
  return nullptr;
}

BufferPool::Frame* BufferPool::TryLatchFreeHit(Partition& part,
                                               PageNo page) {
  Frame* f = HintLookup(part, page);
  if (f == nullptr) return nullptr;
  // Optimistic pin: claim a pin first, then validate. The acquire RMW
  // synchronises with the frame's publishing release (the eviction
  // claim's release or the hint store), so a validated frame's bytes are
  // fully loaded.
  const uint32_t old = f->pins.fetch_add(1, std::memory_order_acquire);
  if ((old & kEvicting) != 0) {
    // Mid-eviction/flush: back off; the latched path will resolve.
    f->pins.fetch_sub(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (f->page.load(std::memory_order_acquire) != page) {
    // Stale hint: the frame was recycled. Undo the pin.
    f->pins.fetch_sub(1, std::memory_order_release);
    return nullptr;
  }
  f->ref.store(1, std::memory_order_relaxed);
  part.hits.fetch_add(1, std::memory_order_relaxed);
  if (queue_events_) RecordAccess(part, *f, page, /*unpin=*/false);
  return f;
}

void BufferPool::UnpinFrame(Frame& f, PageNo page, bool dirty) {
  // The caller's pin keeps the frame resident; no lookup or latch is
  // needed. Publish the dirty mark before the release decrement an
  // eviction claim synchronises with.
  if (dirty) f.dirty.store(true, std::memory_order_relaxed);
  const uint32_t old = f.pins.fetch_sub(1, std::memory_order_release);
  assert((old & ~kEvicting) > 0);
  if (queue_events_ && (old & ~kEvicting) == 1) {
    RecordAccess(PartitionFor(page), f, page, /*unpin=*/true);
  }
}

void BufferPool::Unpin(PageNo page, bool dirty) {
  Partition& part = PartitionFor(page);
  // The caller holds a pin, so the frame cannot be evicted and its hint
  // cannot be erased; only a concurrent hint rebuild can hide it
  // transiently, in which case the authoritative map resolves it.
  Frame* f = HintLookup(part, page);
  if (f == nullptr || f->page.load(std::memory_order_relaxed) != page) {
    std::unique_lock<std::mutex> lock = Latch(part);
    auto it = part.page_to_frame.find(page);
    assert(it != part.page_to_frame.end() && "unpin of uncached page");
    f = &part.frames[it->second];
  }
  UnpinFrame(*f, page, dirty);
}

// --- Access events -------------------------------------------------------

void BufferPool::RecordAccess(Partition& part, Frame& f, PageNo page,
                              bool unpin) {
  const AccessEvent event{
      static_cast<uint32_t>(&f - part.frames.data()), unpin ? 1u : 0u,
      page};
  if (part.events.TryPush(event)) return;
  // Full: replay the backlog under the latch, then this event after it,
  // so no event is lost and the order holds.
  std::unique_lock<std::mutex> lock = Latch(part);
  ApplyEvent(part, event);
}

void BufferPool::ApplyEvent(Partition& part, const AccessEvent& event) {
  // The frame was recycled since the access: the event is about a page
  // this frame no longer caches.
  if (part.frames[event.frame].page.load(std::memory_order_relaxed) !=
      event.page) {
    return;
  }
  if (event.unpin) {
    part.policy->OnUnpin(event.frame);
  } else {
    part.policy->OnHit(event.frame);
  }
}

std::unique_lock<std::mutex> BufferPool::Latch(Partition& part) {
  std::unique_lock<std::mutex> lock(part.mu);
  part.latch_acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (part.events.Pending()) {
    part.events.Drain(
        [&](const AccessEvent& event) { ApplyEvent(part, event); });
  }
  return lock;
}

// --- Latched paths ------------------------------------------------------

void BufferPool::WriteBack(Partition& part, size_t idx) {
  Frame& f = part.frames[idx];
  assert(f.dirty.load(std::memory_order_relaxed));
  const PageNo page = f.page.load(std::memory_order_relaxed);
  pager_->Write(page, f.data.data());
  f.dirty.store(false, std::memory_order_relaxed);
  part.write_backs.fetch_add(1, std::memory_order_relaxed);
  if (observer_) observer_(page);
}

size_t BufferPool::EvictOne(Partition& part) {
  for (;;) {
    const size_t idx = part.policy->PickVictim();
    if (idx == EvictionPolicy::kNoVictim) {
      // Exhaustion (every frame in the stripe pinned) cannot be
      // satisfied; fail loudly rather than invoke UB in release builds.
      // Auto-sizing keeps stripes >= 64 frames precisely so concurrent
      // pins cannot get here.
      std::fprintf(stderr,
                   "lss: buffer pool stripe exhausted: all %zu frames "
                   "pinned; use fewer partitions or a larger pool\n",
                   part.frames.size());
      std::abort();
    }
    Frame& f = part.frames[idx];
    // Claim the frame exclusively: only a frame with zero pins may be
    // evicted, and the claim blocks latch-free pins for its duration.
    uint32_t expected = 0;
    if (!f.pins.compare_exchange_strong(expected, kEvicting,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      // A latch-free pin won the race — the frame is hot again. Ask the
      // policy again: it now skips the pinned frame.
      continue;
    }
    const PageNo page = f.page.load(std::memory_order_relaxed);
    if (f.dirty.load(std::memory_order_relaxed)) WriteBack(part, idx);
    part.page_to_frame.erase(page);
    HintErase(part, page);
    part.policy->OnEvict(idx, page);
    f.page.store(kInvalidPageNo, std::memory_order_relaxed);
    part.evictions.fetch_add(1, std::memory_order_relaxed);
    // The frame stays claimed (kEvicting) until FrameFor publishes its
    // new page.
    return idx;
  }
}

size_t BufferPool::FrameFor(Partition& part, PageNo page,
                            bool load_from_pager) {
  auto it = part.page_to_frame.find(page);
  if (it != part.page_to_frame.end()) {
    part.hits.fetch_add(1, std::memory_order_relaxed);
    part.policy->OnHit(it->second);
    part.frames[it->second].ref.store(1, std::memory_order_relaxed);
    return it->second;
  }
  part.misses.fetch_add(1, std::memory_order_relaxed);
  size_t idx;
  bool claimed = false;
  if (!part.free_frames.empty()) {
    idx = part.free_frames.back();
    part.free_frames.pop_back();
  } else {
    idx = EvictOne(part);
    claimed = true;
  }
  Frame& f = part.frames[idx];
  f.page.store(page, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.ref.store(1, std::memory_order_relaxed);  // an insert is an access
  if (load_from_pager) pager_->Read(page, f.data.data());
  part.page_to_frame.emplace(page, idx);
  part.policy->OnInsert(idx, page);
  HintInsert(part, page, idx);
  if (claimed) {
    // Release the eviction claim; transient latch-free pinners' +1s (all
    // of which back off) are preserved. The release pairs with the
    // acquire RMW in TryLatchFreeHit.
    f.pins.fetch_sub(kEvicting, std::memory_order_release);
  }
  return idx;
}

size_t BufferPool::PinLocked(Partition& part, PageNo page,
                             bool load_from_pager) {
  const size_t idx = FrameFor(part, page, load_from_pager);
  part.frames[idx].pins.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

BufferPool::Frame& BufferPool::PinFrame(PageNo page) {
  Partition& part = PartitionFor(page);
  if (Frame* f = TryLatchFreeHit(part, page)) return *f;
  std::unique_lock<std::mutex> lock = Latch(part);
  return part.frames[PinLocked(part, page, /*load_from_pager=*/true)];
}

uint8_t* BufferPool::Pin(PageNo page) {
  return PinFrame(page).data.data();
}

PageNo BufferPool::AllocatePinned(uint8_t** data_out) {
  const PageNo page = pager_->Allocate();
  Partition& part = PartitionFor(page);
  std::unique_lock<std::mutex> lock = Latch(part);
  const size_t idx = PinLocked(part, page, /*load_from_pager=*/false);
  Frame& f = part.frames[idx];
  std::fill(f.data.begin(), f.data.end(), 0);
  // A freshly allocated page must reach the pager eventually even if it
  // is never modified again.
  f.dirty.store(true, std::memory_order_relaxed);
  *data_out = f.data.data();
  return page;
}

void BufferPool::FlushAll() {
  for (auto& part : parts_) {
    std::unique_lock<std::mutex> lock = Latch(*part);
    for (size_t i = 0; i < part->frames.size(); ++i) {
      Frame& f = part->frames[i];
      if (f.page.load(std::memory_order_relaxed) == kInvalidPageNo) continue;
      if (!f.dirty.load(std::memory_order_relaxed)) continue;
      // Claim the frame for the write-back so a latch-free pinner cannot
      // mutate its bytes mid-copy; a pinned frame is skipped (see class
      // comment).
      uint32_t expected = 0;
      if (!f.pins.compare_exchange_strong(expected, kEvicting,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        continue;
      }
      WriteBack(*part, i);
      f.pins.fetch_sub(kEvicting, std::memory_order_release);
    }
  }
}

}  // namespace lss
