#include "btree/buffer_pool.h"

#include <atomic>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace lss {
namespace {

TEST(BufferPoolTest, AllocatePinnedReturnsZeroedPage) {
  Pager pager;
  BufferPool pool(&pager, 8);
  uint8_t* data = nullptr;
  const PageNo p = pool.AllocatePinned(&data);
  ASSERT_NE(data, nullptr);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(data[i], 0);
  pool.Unpin(p, true);
  pool.FlushAll();
}

TEST(BufferPoolTest, DirtyPageSurvivesEviction) {
  Pager pager;
  BufferPool pool(&pager, 8);
  uint8_t* data = nullptr;
  const PageNo p = pool.AllocatePinned(&data);
  data[0] = 0xAB;
  pool.Unpin(p, true);
  // Blow the cache with other pages.
  for (int i = 0; i < 32; ++i) {
    uint8_t* d = nullptr;
    const PageNo q = pool.AllocatePinned(&d);
    pool.Unpin(q, true);
  }
  uint8_t* back = pool.Pin(p);
  EXPECT_EQ(back[0], 0xAB);
  pool.Unpin(p, false);
  EXPECT_GT(pool.evictions(), 0u);
  pool.FlushAll();
}

TEST(BufferPoolTest, WriteObserverSeesWriteBacks) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  uint8_t* d = nullptr;
  const PageNo p = pool.AllocatePinned(&d);
  d[0] = 1;
  pool.Unpin(p, true);
  EXPECT_TRUE(written.empty());  // still cached
  pool.FlushAll();
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], p);
  // A clean page is not written again.
  pool.FlushAll();
  EXPECT_EQ(written.size(), 1u);
}

TEST(BufferPoolTest, EvictionWritesDirtyOnly) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  // One dirty page, then fill with clean re-reads of fresh pages.
  uint8_t* d = nullptr;
  const PageNo dirty = pool.AllocatePinned(&d);
  pool.Unpin(dirty, true);
  std::vector<PageNo> clean_pages;
  for (int i = 0; i < 20; ++i) clean_pages.push_back(pager.Allocate());
  for (PageNo p : clean_pages) {
    pool.Pin(p);
    pool.Unpin(p, false);
  }
  // The dirty page must have been written back exactly once on eviction.
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], dirty);
}

TEST(BufferPoolTest, HitsAndMisses) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  pool.Pin(p);
  pool.Unpin(p, false);
  pool.Pin(p);
  pool.Unpin(p, false);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  std::vector<PageNo> pages;
  for (int i = 0; i < 8; ++i) {
    uint8_t* d = nullptr;
    pages.push_back(pool.AllocatePinned(&d));
    pool.Unpin(pages.back(), true);
  }
  // Touch all but pages[0]; the next allocation must evict pages[0].
  for (int i = 1; i < 8; ++i) {
    pool.Pin(pages[i]);
    pool.Unpin(pages[i], false);
  }
  uint8_t* d = nullptr;
  const PageNo q = pool.AllocatePinned(&d);
  pool.Unpin(q, true);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], pages[0]);
}

TEST(BufferPoolTest, PageRefRaii) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  {
    PageRef ref(&pool, p);
    ASSERT_TRUE(ref.Valid());
    ref.data()[0] = 7;
    ref.MarkDirty();
  }
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.FlushAll();
  EXPECT_EQ(pager.Raw(p)[0], 7);
}

TEST(BufferPoolTest, PartitionAutoScaling) {
  Pager pager;
  // Tiny pools get one stripe (exact global LRU, the pre-refactor
  // behaviour); big pools get up to 64 stripes of >= 64 frames each.
  EXPECT_EQ(BufferPool(&pager, 8).partitions(), 1u);
  EXPECT_EQ(BufferPool(&pager, 127).partitions(), 1u);
  EXPECT_EQ(BufferPool(&pager, 128).partitions(), 2u);
  EXPECT_EQ(BufferPool(&pager, 8192).partitions(), 64u);
  // An explicit request is honoured but clamped to >= 8 frames/stripe.
  EXPECT_EQ(BufferPool(&pager, 64, nullptr, 4).partitions(), 4u);
  EXPECT_EQ(BufferPool(&pager, 16, nullptr, 16).partitions(), 2u);
}

TEST(BufferPoolTest, RepeatedPinsCountOneFrame) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  pool.Pin(p);
  pool.Pin(p);
  EXPECT_EQ(pool.PinnedFrames(), 1u);
  pool.Unpin(p, false);
  EXPECT_EQ(pool.PinnedFrames(), 1u);  // one pin still outstanding
  pool.Unpin(p, false);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, FlushAllSkipsPinnedFrames) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  uint8_t* d = nullptr;
  const PageNo p = pool.AllocatePinned(&d);
  // Pinned + dirty: a flush must leave the frame alone (its bytes are in
  // active use), and write it once it is unpinned.
  pool.FlushAll();
  EXPECT_TRUE(written.empty());
  pool.Unpin(p, true);
  pool.FlushAll();
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], p);
}

TEST(BufferPoolTest, MultiPartitionEvictionAccounting) {
  Pager pager;
  std::atomic<uint64_t> observed{0};
  BufferPool pool(&pager, 64, [&](PageNo) { ++observed; },
                  /*partitions=*/4);
  ASSERT_EQ(pool.partitions(), 4u);
  // Write 4x the capacity in distinct pages, each stamped with its page
  // number; every page must survive (via write-back) despite evictions
  // landing across all four stripes.
  constexpr int kPages = 256;
  std::vector<PageNo> pages;
  for (int i = 0; i < kPages; ++i) {
    uint8_t* d = nullptr;
    const PageNo p = pool.AllocatePinned(&d);
    std::memcpy(d, &p, sizeof(p));
    pool.Unpin(p, true);
    pages.push_back(p);
  }
  pool.FlushAll();
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(pool.write_backs(), observed.load());
  EXPECT_EQ(pool.write_backs(), static_cast<uint64_t>(kPages));
  for (PageNo p : pages) {
    PageRef ref(&pool, p);
    PageNo stamp = 0;
    std::memcpy(&stamp, ref.data(), sizeof(stamp));
    EXPECT_EQ(stamp, p);
  }
  // Every allocation missed; the verification pass re-misses evicted
  // pages and hits cached ones — totals must reconcile exactly.
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(2 * kPages));
}

TEST(BufferPoolTest, PageRefMoveTransfersOwnership) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  PageRef a(&pool, p);
  PageRef b = std::move(a);
  EXPECT_FALSE(a.Valid());
  EXPECT_TRUE(b.Valid());
  b.Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST(BufferPoolTest, AutoPartitionFloor) {
  Pager pager;
  // Auto-partitioning never creates a stripe of fewer than 64 frames, so
  // every capacity below 128 — including the asserted minimum of 8 —
  // runs as exactly one partition (a single exact cache).
  for (size_t capacity = 8; capacity < 128; ++capacity) {
    EXPECT_EQ(BufferPool(&pager, capacity).partitions(), 1u)
        << "capacity " << capacity;
  }
  EXPECT_EQ(BufferPool(&pager, 128).partitions(), 2u);
}

// Reference model of the pre-seam pool (exact LRU, one partition): the
// policy-seam refactor must reproduce its observable behaviour —
// write-back order and all counters — bit for bit.
class LruReferenceModel {
 public:
  explicit LruReferenceModel(size_t capacity) : capacity_(capacity) {
    // Free frames are handed out lowest-index first.
    for (size_t i = 0; i < capacity; ++i) free_.push_back(capacity - 1 - i);
  }

  void Pin(PageNo page) {
    auto it = resident_.find(page);
    if (it != resident_.end()) {
      ++hits;
      lru_.remove(page);
      ++it->second.pins;
      return;
    }
    ++misses;
    size_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      const PageNo victim = lru_.back();
      lru_.pop_back();
      Entry& v = resident_[victim];
      if (v.dirty) writes.push_back(victim);
      idx = v.frame;
      resident_.erase(victim);
      ++evictions;
    }
    resident_[page] = Entry{idx, 1, false};
  }

  void Unpin(PageNo page, bool dirty) {
    Entry& e = resident_[page];
    e.dirty |= dirty;
    if (--e.pins == 0) lru_.push_front(page);
  }

  void FlushAll() {
    // Frame-index order, dirty unpinned frames only.
    std::map<size_t, PageNo> by_frame;
    for (const auto& [page, e] : resident_) by_frame[e.frame] = page;
    for (const auto& [idx, page] : by_frame) {
      (void)idx;
      Entry& e = resident_[page];
      if (e.dirty && e.pins == 0) {
        writes.push_back(page);
        e.dirty = false;
      }
    }
  }

  std::vector<PageNo> writes;
  uint64_t hits = 0, misses = 0, evictions = 0;

 private:
  struct Entry {
    size_t frame = 0;
    uint32_t pins = 0;
    bool dirty = false;
  };
  size_t capacity_;
  std::unordered_map<PageNo, Entry> resident_;
  std::list<PageNo> lru_;      // front = MRU; unpinned pages only
  std::vector<size_t> free_;   // pop_back yields lowest index first
};

TEST(BufferPoolTest, ExactLruMatchesReferenceModel) {
  constexpr size_t kCapacity = 16;
  constexpr PageNo kPages = 40;
  constexpr int kOps = 20000;

  Pager pager;
  std::vector<PageNo> pool_writes;
  BufferPool pool(&pager, kCapacity,
                  [&](PageNo p) { pool_writes.push_back(p); },
                  /*partitions=*/1, EvictionPolicyKind::kExactLru);
  LruReferenceModel model(kCapacity);
  for (PageNo p = 0; p < kPages; ++p) pager.Allocate();

  // A deterministic stream of overlapping pins, dirtying half of them,
  // with periodic checkpoints.
  std::deque<PageNo> held;
  uint64_t x = 12345;
  for (int i = 0; i < kOps; ++i) {
    x = SplitMix64(x);
    const PageNo p = static_cast<PageNo>(x % kPages);
    pool.Pin(p);
    model.Pin(p);
    held.push_back(p);
    if (held.size() > 3) {
      x = SplitMix64(x);
      const bool dirty = (x & 1) != 0;
      pool.Unpin(held.front(), dirty);
      model.Unpin(held.front(), dirty);
      held.pop_front();
    }
    if ((i % 1024) == 1023) {
      pool.FlushAll();
      model.FlushAll();
    }
  }
  while (!held.empty()) {
    pool.Unpin(held.front(), false);
    model.Unpin(held.front(), false);
    held.pop_front();
  }

  // A hit-only stretch longer than the access-event queue, ending with
  // an unpin that found the queue full, replayed it under the latch and
  // applied its own event after it. Evictions of every stretch page
  // (each dirtied, so each is written back in LRU order) follow and must
  // match the model's. A page is never touched twice in a row, so every
  // unpin changes the LRU order and a lost event would show.
  for (PageNo p = 0; p < kCapacity; ++p) {
    pool.Pin(p);
    model.Pin(p);
    pool.Unpin(p, false);
    model.Unpin(p, false);
  }
  const uint64_t stretch_hits = pool.hits();
  constexpr int kQueue = BufferPool::kAccessQueueCapacity;
  int stretch = 0;
  PageNo page = kCapacity - 1;
  for (bool replayed = false; !replayed || 2 * stretch <= kQueue;
       ++stretch) {
    ASSERT_LT(stretch, 4 * kQueue) << "no unpin ever found the queue full";
    x = SplitMix64(x);
    page = static_cast<PageNo>((page + 1 + x % (kCapacity - 1)) % kCapacity);
    pool.Pin(page);
    model.Pin(page);
    const uint64_t latches = pool.latch_acquisitions();
    pool.Unpin(page, true);
    model.Unpin(page, true);
    replayed = pool.latch_acquisitions() != latches;
  }
  EXPECT_EQ(pool.hits() - stretch_hits, static_cast<uint64_t>(stretch));
  for (PageNo p = kCapacity; p < kPages; ++p) {
    pool.Pin(p);
    model.Pin(p);
    pool.Unpin(p, false);
    model.Unpin(p, false);
  }
  pool.FlushAll();
  model.FlushAll();

  EXPECT_EQ(pool_writes, model.writes);
  EXPECT_EQ(pool.hits(), model.hits);
  EXPECT_EQ(pool.misses(), model.misses);
  EXPECT_EQ(pool.evictions(), model.evictions);
  EXPECT_EQ(pool.write_backs(), model.writes.size());
}

TEST(BufferPoolTest, TwoQSurvivesScanFlood) {
  // A promoted hot set must survive a one-pass sequential flood under
  // 2Q; under exact LRU the same flood purges it completely.
  constexpr size_t kCapacity = 64;
  constexpr PageNo kHot = 16;
  constexpr PageNo kFloodPages = 2000;

  for (EvictionPolicyKind kind :
       {EvictionPolicyKind::kTwoQ, EvictionPolicyKind::kExactLru}) {
    Pager pager;
    BufferPool pool(&pager, kCapacity, nullptr, /*partitions=*/1, kind);
    for (PageNo p = 0; p < kHot + kFloodPages; ++p) pager.Allocate();

    // Two passes over the hot set: the second reference is what 2Q
    // rewards with a protected (Am) slot.
    for (int round = 0; round < 2; ++round) {
      for (PageNo p = 0; p < kHot; ++p) {
        pool.Pin(p);
        pool.Unpin(p, false);
      }
    }
    // One-pass flood, far larger than the pool.
    for (PageNo p = kHot; p < kHot + kFloodPages; ++p) {
      pool.Pin(p);
      pool.Unpin(p, false);
    }
    const uint64_t hits_before = pool.hits();
    for (PageNo p = 0; p < kHot; ++p) {
      pool.Pin(p);
      pool.Unpin(p, false);
    }
    const uint64_t hot_hits = pool.hits() - hits_before;
    if (kind == EvictionPolicyKind::kTwoQ) {
      EXPECT_EQ(hot_hits, kHot) << "2Q lost its protected set to a scan";
    } else {
      EXPECT_EQ(hot_hits, 0u) << "LRU unexpectedly survived the scan";
    }
  }
}

const EvictionPolicyKind kAllPolicies[] = {
    EvictionPolicyKind::kExactLru,
    EvictionPolicyKind::kClock,
    EvictionPolicyKind::kTwoQ,
};

TEST(BufferPoolTest, HitsAreLatchFreeForEveryPolicy) {
  constexpr int kRounds = 50;
  constexpr int kPages = 32;
  // Every pin and every unpin is one queued access event; the phase
  // must fit in the queue for the latch count to stay flat.
  static_assert(2 * kRounds * kPages < BufferPool::kAccessQueueCapacity,
                "pure-hit phase longer than the access-event queue");
  for (EvictionPolicyKind kind : kAllPolicies) {
    Pager pager;
    BufferPool pool(&pager, 64, nullptr, /*partitions=*/1, kind);
    std::vector<PageNo> pages;
    for (int i = 0; i < kPages; ++i) pages.push_back(pager.Allocate());
    for (PageNo p : pages) {
      pool.Pin(p);
      pool.Unpin(p, false);
    }
    // Pure hits: pin and unpin must both bypass the partition latch.
    const uint64_t latches = pool.latch_acquisitions();
    const uint64_t hits = pool.hits();
    for (int round = 0; round < kRounds; ++round) {
      for (PageNo p : pages) {
        pool.Pin(p);
        pool.Unpin(p, false);
      }
    }
    EXPECT_EQ(pool.hits(), hits + kRounds * pages.size())
        << EvictionPolicyName(kind);
    EXPECT_EQ(pool.latch_acquisitions(), latches) << EvictionPolicyName(kind);
  }
}

TEST(BufferPoolTest, ClockWriteBacksSurviveEviction) {
  // Same zero-loss write-back contract as LRU, under CLOCK's claim-based
  // eviction: every dirtied page's final value must be readable after
  // churn evicts it.
  Pager pager;
  BufferPool pool(&pager, 8, nullptr, /*partitions=*/1,
                  EvictionPolicyKind::kClock);
  std::vector<PageNo> pages;
  for (int i = 0; i < 32; ++i) {
    uint8_t* d = nullptr;
    const PageNo p = pool.AllocatePinned(&d);
    std::memcpy(d, &p, sizeof(p));
    pool.Unpin(p, true);
    pages.push_back(p);
  }
  pool.FlushAll();
  for (PageNo p : pages) {
    PageRef ref(&pool, p);
    PageNo stamp = 0;
    std::memcpy(&stamp, ref.data(), sizeof(stamp));
    EXPECT_EQ(stamp, p);
  }
}

// --- Concurrency (runs under TSan via scripts/check.sh --tsan) ----------

TEST(BufferPoolParallelTest, ConcurrentPinUnpinStress) {
  // 8 threads hammer one pool: each thread read-modify-writes its own
  // page range (the pool's contract: no two threads mutate one page
  // concurrently) and reads a shared read-only range, while thread 0
  // periodically checkpoints. Verifies counter reconciliation and that
  // no update is lost through eviction/write-back races.
  constexpr uint32_t kThreads = 8;
  constexpr int kItersPerThread = 4000;
  constexpr PageNo kOwnPages = 24;    // per thread
  constexpr PageNo kSharedPages = 64;

  Pager pager;
  std::atomic<uint64_t> observed{0};
  BufferPool pool(&pager, 128, [&](PageNo) { ++observed; },
                  /*partitions=*/8);

  // Shared read-only pages, stamped with their page number.
  std::vector<PageNo> shared;
  for (PageNo i = 0; i < kSharedPages; ++i) {
    uint8_t* d = nullptr;
    const PageNo p = pool.AllocatePinned(&d);
    std::memcpy(d, &p, sizeof(p));
    pool.Unpin(p, true);
    shared.push_back(p);
  }
  // Per-thread counter pages.
  std::vector<std::vector<PageNo>> own(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (PageNo i = 0; i < kOwnPages; ++i) {
      uint8_t* d = nullptr;
      const PageNo p = pool.AllocatePinned(&d);
      pool.Unpin(p, true);
      own[t].push_back(p);
    }
  }
  pool.FlushAll();

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = t * 0x9E3779B97F4A7C15ull + 1;
      for (int i = 0; i < kItersPerThread; ++i) {
        x = SplitMix64(x);
        if ((x & 1) == 0) {
          // Read a shared page and verify its stamp.
          const PageNo p = shared[x % kSharedPages];
          PageRef ref(&pool, p);
          PageNo stamp = 0;
          std::memcpy(&stamp, ref.data(), sizeof(stamp));
          ASSERT_EQ(stamp, p);
        } else {
          // Increment this thread's own page counter.
          const PageNo p = own[t][x % kOwnPages];
          PageRef ref(&pool, p);
          uint64_t count = 0;
          std::memcpy(&count, ref.data(), sizeof(count));
          ++count;
          std::memcpy(ref.data(), &count, sizeof(count));
          ref.MarkDirty();
        }
        if (t == 0 && (i % 512) == 511) pool.FlushAll();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.FlushAll();
  EXPECT_EQ(pool.write_backs(), observed.load());

  // Each thread's counters must sum to its write-iteration count: no
  // increment may be lost to a torn write-back or stale reload.
  for (uint32_t t = 0; t < kThreads; ++t) {
    uint64_t sum = 0;
    for (PageNo p : own[t]) {
      PageRef ref(&pool, p);
      uint64_t count = 0;
      std::memcpy(&count, ref.data(), sizeof(count));
      sum += count;
    }
    uint64_t expected = 0;
    uint64_t x = t * 0x9E3779B97F4A7C15ull + 1;
    for (int i = 0; i < kItersPerThread; ++i) {
      x = SplitMix64(x);
      if ((x & 1) != 0) ++expected;
    }
    EXPECT_EQ(sum, expected) << "thread " << t;
  }
}

TEST(BufferPoolParallelTest, ConcurrentAllocatePinned) {
  // Concurrent fresh-page allocation: page numbers must be unique and
  // every page's first write must survive.
  constexpr uint32_t kThreads = 8;
  constexpr int kPerThread = 500;
  Pager pager;
  BufferPool pool(&pager, 128, nullptr, /*partitions=*/8);
  std::vector<std::vector<PageNo>> pages(kThreads);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint8_t* d = nullptr;
        const PageNo p = pool.AllocatePinned(&d);
        std::memcpy(d, &p, sizeof(p));
        pool.Unpin(p, true);
        pages[t].push_back(p);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  pool.FlushAll();

  std::vector<bool> seen(pager.PageCount(), false);
  for (const auto& list : pages) {
    for (PageNo p : list) {
      ASSERT_LT(p, pager.PageCount());
      ASSERT_FALSE(seen[p]) << "duplicate page " << p;
      seen[p] = true;
      PageNo stamp = 0;
      std::memcpy(&stamp, pager.Raw(p), sizeof(stamp));
      EXPECT_EQ(stamp, p);
    }
  }
  EXPECT_EQ(pager.PageCount(), kThreads * kPerThread);
}

// The shared body of EveryPolicyConcurrentHitStress.
void ConcurrentHitStress(EvictionPolicyKind kind) {
  constexpr uint32_t kThreads = 8;
  constexpr int kItersPerThread = 4000;
  constexpr PageNo kOwnPages = 24;  // per thread
  constexpr PageNo kSharedPages = 64;

  Pager pager;
  std::atomic<uint64_t> observed{0};
  BufferPool pool(&pager, 128, [&](PageNo) { ++observed; },
                  /*partitions=*/8, kind);

  std::vector<PageNo> shared;
  for (PageNo i = 0; i < kSharedPages; ++i) {
    uint8_t* d = nullptr;
    const PageNo p = pool.AllocatePinned(&d);
    std::memcpy(d, &p, sizeof(p));
    pool.Unpin(p, true);
    shared.push_back(p);
  }
  std::vector<std::vector<PageNo>> own(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (PageNo i = 0; i < kOwnPages; ++i) {
      uint8_t* d = nullptr;
      const PageNo p = pool.AllocatePinned(&d);
      pool.Unpin(p, true);
      own[t].push_back(p);
    }
  }
  pool.FlushAll();

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = t * 0x9E3779B97F4A7C15ull + 1;
      for (int i = 0; i < kItersPerThread; ++i) {
        x = SplitMix64(x);
        if ((x & 1) == 0) {
          const PageNo p = shared[x % kSharedPages];
          PageRef ref(&pool, p);
          PageNo stamp = 0;
          std::memcpy(&stamp, ref.data(), sizeof(stamp));
          ASSERT_EQ(stamp, p);
        } else {
          const PageNo p = own[t][x % kOwnPages];
          PageRef ref(&pool, p);
          uint64_t count = 0;
          std::memcpy(&count, ref.data(), sizeof(count));
          ++count;
          std::memcpy(ref.data(), &count, sizeof(count));
          ref.MarkDirty();
        }
        if (t == 0 && (i % 512) == 511) pool.FlushAll();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.FlushAll();
  EXPECT_EQ(pool.write_backs(), observed.load());

  for (uint32_t t = 0; t < kThreads; ++t) {
    uint64_t sum = 0;
    for (PageNo p : own[t]) {
      PageRef ref(&pool, p);
      uint64_t count = 0;
      std::memcpy(&count, ref.data(), sizeof(count));
      sum += count;
    }
    uint64_t expected = 0;
    uint64_t x = t * 0x9E3779B97F4A7C15ull + 1;
    for (int i = 0; i < kItersPerThread; ++i) {
      x = SplitMix64(x);
      if ((x & 1) != 0) ++expected;
    }
    EXPECT_EQ(sum, expected) << "thread " << t;
  }
  // The shared hot set sees sustained hits; misses still occur (the pool
  // is half the working set), but the hit path must dominate latch
  // traffic: far fewer latch acquisitions than operations.
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_LT(pool.latch_acquisitions(), pool.hits() + pool.misses());
}

TEST(BufferPoolParallelTest, EveryPolicyConcurrentHitStress) {
  // The latch-free hit path under fire, for every policy: threads race
  // lock-free pins/unpins (and, for LRU and 2Q, access-event pushes and
  // their replay under the latch) on a shared hot set against evictions
  // (capacity is half the working set) and periodic FlushAll claims. Run
  // under TSan; the per-thread counter pages also make any lost update
  // visible.
  for (EvictionPolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    ConcurrentHitStress(kind);
  }
}

}  // namespace
}  // namespace lss
