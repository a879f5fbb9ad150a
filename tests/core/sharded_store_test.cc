#include "core/sharded_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "util/rng.h"
#include "util/spin_lock.h"
#include "workload/runner.h"

namespace lss {
namespace {

StoreConfig SmallConfig() {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 256;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 2;
  return c;
}

PolicyFactory FactoryFor(Variant v) {
  return [v] { return MakePolicy(v); };
}

TEST(ShardedStoreTest, CreateValidatesGeometry) {
  Status st;
  // 256 segments over 4 shards -> 64 per shard, fine.
  auto ok = ShardedStore::Create(SmallConfig(), 4, FactoryFor(Variant::kGreedy),
                                 &st);
  ASSERT_NE(ok, nullptr) << st.ToString();
  EXPECT_EQ(ok->num_shards(), 4u);
  EXPECT_EQ(ok->shard_config().num_segments, 64u);

  // 256 segments over 64 shards -> 4 per shard. The device trigger (2)
  // is split too, with a floor of 1, so "trigger < num_segments / 2"
  // still holds per shard.
  auto tight = ShardedStore::Create(SmallConfig(), 64,
                                    FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(tight, nullptr) << st.ToString();
  EXPECT_EQ(tight->shard_config().num_segments, 4u);
  EXPECT_EQ(tight->shard_config().clean_trigger_segments, 1u);

  // 256 segments over 128 shards -> 2 per shard, below the minimum of 4.
  auto bad = ShardedStore::Create(SmallConfig(), 128,
                                  FactoryFor(Variant::kGreedy), &st);
  EXPECT_EQ(bad, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);

  auto no_factory = ShardedStore::Create(SmallConfig(), 2, nullptr, &st);
  EXPECT_EQ(no_factory, nullptr);
}

TEST(ShardedStoreTest, RoutingCoversAllShards) {
  constexpr uint32_t kShards = 8;
  std::vector<uint64_t> per_shard(kShards, 0);
  constexpr PageId kPages = 10000;
  for (PageId p = 0; p < kPages; ++p) ++per_shard[PageShard(p, kShards)];
  for (uint32_t s = 0; s < kShards; ++s) {
    // A fair hash puts roughly 1/8 of the pages on each shard; anything
    // within 2x of fair detects gross skew without being flaky.
    EXPECT_GT(per_shard[s], kPages / (2 * kShards)) << "shard " << s;
    EXPECT_LT(per_shard[s], kPages * 2 / kShards) << "shard " << s;
  }
}

TEST(ShardedStoreTest, WritesRouteToOwningShard) {
  Status st;
  auto store = ShardedStore::Create(SmallConfig(), 4,
                                    FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 200; ++p) {
    ASSERT_TRUE(store->Write(p).ok());
    EXPECT_TRUE(store->Contains(p));
    EXPECT_EQ(store->PageSize(p), 4096u);
  }
  // Every page's meta is interpreted by exactly the shard it hashes to.
  for (PageId p = 0; p < 200; ++p) {
    const StoreShard& shard = store->shard(store->ShardOf(p));
    EXPECT_TRUE(shard.OwnsPage(p));
    EXPECT_TRUE(shard.Contains(p));
  }
  // Each shard saw exactly its routed updates; the aggregate sees all.
  uint64_t sum = 0;
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_GT(store->shard(i).stats().user_updates, 0u) << "idle shard " << i;
    sum += store->shard(i).stats().user_updates;
  }
  EXPECT_EQ(sum, 200u);
  EXPECT_EQ(store->AggregatedStats().user_updates, 200u);
}

TEST(ShardedStoreTest, DeleteAndFlushWork) {
  Status st;
  auto store = ShardedStore::Create(SmallConfig(), 2,
                                    FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 100; ++p) ASSERT_TRUE(store->Write(p).ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->LivePageCount(), 100u);
  for (PageId p = 0; p < 50; ++p) ASSERT_TRUE(store->Delete(p).ok());
  EXPECT_EQ(store->Delete(17).code(), Status::Code::kNotFound);
  EXPECT_EQ(store->LivePageCount(), 50u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// The clean trigger is a device-wide free-pool reserve (paper §6.1.1),
// split over the shards like num_segments with a floor of 1; batch and
// write buffer stay per shard.
TEST(ShardedStoreTest, CleanTriggerIsDeviceWide) {
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    for (uint32_t t : {1u, 4u, 16u}) {
      StoreConfig cfg = SmallConfig();
      cfg.num_segments = 1024;
      cfg.clean_trigger_segments = t;
      Status st;
      auto store =
          ShardedStore::Create(cfg, n, FactoryFor(Variant::kGreedy), &st);
      ASSERT_NE(store, nullptr) << st.ToString();
      const uint32_t want = std::max(1u, t / n);
      EXPECT_EQ(store->shard_config().clean_trigger_segments, want)
          << n << " shards, trigger " << t;
      EXPECT_EQ(store->shard_config().num_segments, 1024u / n);
      for (uint32_t i = 0; i < n; ++i) {
        const StoreConfig& c = store->shard(i).config();
        EXPECT_EQ(c.clean_trigger_segments, want)
            << n << " shards, trigger " << t << ", shard " << i;
        EXPECT_EQ(c.clean_batch_segments, cfg.clean_batch_segments);
        EXPECT_EQ(c.write_buffer_segments, cfg.write_buffer_segments);
      }
    }
  }
}

// Golden Wamp of a deterministic 4-shard MDC run (one client thread) on
// hot-cold 80:20 updates, recorded with the device-wide clean trigger
// (8 segments over 4 shards = 2 each). Giving every shard the full
// trigger again holds back 4x the free-pool reserve and fails here.
TEST(ShardedStoreTest, FourShardHotColdGoldenWamp) {
  StoreConfig cfg = SmallConfig();
  cfg.clean_trigger_segments = 8;
  HotColdWorkload workload(cfg.UserPagesForFillFactor(0.8), 0.8);
  RunSpec spec;
  spec.fill_factor = 0.8;
  spec.warmup_multiplier = 3;
  spec.measure_multiplier = 4;
  spec.seed = 5;

  const RunResult r = RunSynthetic(cfg, Variant::kMdc, workload, spec,
                                   /*threads=*/1, /*shards=*/4);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.shards, 4u);
  EXPECT_EQ(r.wamp, 1.3913143382352942);
  EXPECT_EQ(r.measured_updates, 13104u);
  EXPECT_EQ(r.segments_cleaned, 1952u);
  EXPECT_EQ(r.mean_clean_emptiness, 0.41838498975409838);
}

// Golden counters of the paper's single-log simulator: one shard, one
// thread, a fixed update sequence. The values are the ones the former
// standalone single-log store produced for this exact input; a 1-shard
// store must keep reproducing them bit for bit.
TEST(ShardedStoreTest, OneShardGoldenCounters) {
  struct Golden {
    Variant v;
    uint64_t user_updates;
    uint64_t user_pages_written;
    uint64_t gc_pages_written;
    uint64_t segments_cleaned;
    uint64_t cleanings;
    double wamp;
    double emptiness;
  };
  const Golden goldens[] = {
      {Variant::kGreedy, 22000, 22000, 3551, 1344, 336, 0.16140909090909092,
       0.83486793154761907},
      {Variant::kMultiLog, 22000, 22000, 4131, 1388, 1388,
       0.18777272727272729, 0.81398595100864557},
      {Variant::kMdc, 22000, 21984, 3495, 1340, 335, 0.15897925764192139,
       0.83698694029850751},
  };
  for (const Golden& g : goldens) {
    StoreConfig cfg = SmallConfig();
    ApplyVariantConfig(g.v, &cfg);
    Status st;
    auto store = ShardedStore::Create(cfg, 1, FactoryFor(g.v), &st);
    ASSERT_NE(store, nullptr) << st.ToString();

    const PageId pages = 2000;
    for (PageId p = 0; p < pages; ++p) ASSERT_TRUE(store->Write(p).ok());
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(pages)).ok());
    }

    const StoreStats s = store->AggregatedStats();
    EXPECT_EQ(s.user_updates, g.user_updates) << VariantName(g.v);
    EXPECT_EQ(s.user_pages_written, g.user_pages_written) << VariantName(g.v);
    EXPECT_EQ(s.gc_pages_written, g.gc_pages_written) << VariantName(g.v);
    EXPECT_EQ(s.segments_cleaned, g.segments_cleaned) << VariantName(g.v);
    EXPECT_EQ(s.cleanings, g.cleanings) << VariantName(g.v);
    // Bit-for-bit: the doubles must be identical, not just close.
    EXPECT_EQ(s.WriteAmplification(), g.wamp) << VariantName(g.v);
    EXPECT_EQ(s.MeanCleanEmptiness(), g.emptiness) << VariantName(g.v);
    EXPECT_TRUE(store->CheckInvariants().ok());
  }
}

// The same property through the runner entry point the benches use: a
// 1-thread RunSynthetic reproduces fixed golden results (recorded from
// the former single-threaded runner on this input).
TEST(ShardedStoreTest, OneThreadRunSyntheticGolden) {
  StoreConfig cfg = SmallConfig();
  UniformWorkload workload(2500);
  RunSpec spec;
  spec.fill_factor = 0.75;
  spec.warmup_multiplier = 3;
  spec.measure_multiplier = 4;
  spec.seed = 11;

  const RunResult r = RunSynthetic(cfg, Variant::kMdc, workload, spec,
                                   /*threads=*/1, /*shards=*/1);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.threads, 1u);
  EXPECT_EQ(r.shards, 1u);
  // user_pages_written = 10016 and gc_pages_written = 4410 give this Wamp.
  EXPECT_EQ(r.wamp, 0.44029552715654952);
  EXPECT_EQ(r.measured_updates, 10000u);
  EXPECT_EQ(r.segments_cleaned, 904u);
  EXPECT_EQ(r.mean_clean_emptiness, 0.69510508849557517);
  EXPECT_EQ(r.effective_fill, 0.6103515625);
  ASSERT_EQ(r.shard_wamp.size(), 1u);
  EXPECT_EQ(r.shard_wamp[0], r.wamp);
}

// Concurrency stress: many threads hammer a sharded store with writes,
// deletes and flushes, then every shard must pass its full invariant
// cross-check. Run under TSan (scripts/check.sh --tsan) this doubles as
// the data-race detector for the shared page table and shard locking.
TEST(ShardedStoreTest, MultiThreadedStressKeepsInvariants) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPages = 4000;
  constexpr int kOpsPerThread = 30000;
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> deletes_applied{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const PageId p = rng.NextBounded(kPages);
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 90) {
          if (!store->Write(p).ok()) failed.store(true);
          writes.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 97) {
          const Status s = store->Delete(p);
          if (s.ok()) {
            deletes_applied.fetch_add(1, std::memory_order_relaxed);
          } else if (s.code() != Status::Code::kNotFound) {
            failed.store(true);
          }
        } else {
          if (!store->Flush().ok()) failed.store(true);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(failed.load()) << "a store operation failed mid-stress";

  // Every logical op must be accounted for in the aggregated counters...
  const StoreStats total = store->AggregatedStats();
  EXPECT_EQ(total.user_updates, writes.load());
  EXPECT_EQ(total.deletes, deletes_applied.load());
  // ...and every shard must be internally consistent, including the
  // shared page table cross-check.
  EXPECT_TRUE(store->CheckInvariants().ok());
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_TRUE(store->shard(i).CheckInvariants().ok()) << "shard " << i;
  }
}

// Concurrent growth of the shared page table: thread t owns ids t, t+8,
// t+16, ..., so every chunk is grown by a race among all eight threads.
// Each thread keeps the reference Ensure returned for every id and, while
// the others keep growing the table, re-reads its earlier ids through the
// lock-free Get; afterwards every kept reference must still be the slot
// the table returns and hold what its thread wrote (growth never moves a
// slot).
TEST(PageTableConcurrencyTest, ParallelEnsureAndReadback) {
  PageTable table;
  constexpr uint32_t kThreads = 8;
  constexpr PageId kPerThread = 5000;  // ~10 chunks across all threads
  std::vector<std::vector<PageMeta*>> refs(kThreads);
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<PageMeta*>& mine = refs[t];
      mine.reserve(kPerThread);
      for (PageId i = 0; i < kPerThread; ++i) {
        const PageId p = i * kThreads + t;
        PageMeta& m = table.Ensure(p);
        m.loc = PageLocation{static_cast<SegmentId>(t), 0};
        m.bytes = 512 + t;
        m.last_update = p + 1;
        mine.push_back(&m);
        // An earlier id of this thread, read while others grow the table.
        const PageId back = (i / 2) * kThreads + t;
        if (&table.Get(back) != mine[i / 2] ||
            table.Get(back).last_update != back + 1) {
          mismatch.store(true);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_FALSE(mismatch.load());

  EXPECT_EQ(table.Size(), kThreads * kPerThread);
  EXPECT_EQ(table.CountPresent(), kThreads * kPerThread);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (PageId i = 0; i < kPerThread; ++i) {
      const PageId p = i * kThreads + t;
      ASSERT_EQ(&table.Get(p), refs[t][i]) << "page " << p << " moved";
      ASSERT_EQ(refs[t][i]->loc.segment, t);
      ASSERT_EQ(refs[t][i]->bytes, 512 + t);
      ASSERT_EQ(refs[t][i]->last_update, p + 1);
    }
  }
}

// Ids past the directory cap read as absent and a store write to one is
// rejected before it touches any state; the last addressable id works.
TEST(PageTableConcurrencyTest, RejectsIdsPastTheDirectoryCap) {
  constexpr PageId kCap = PageTable::kMaxPages;
  EXPECT_TRUE(PageTable::Addressable(kCap - 1));
  EXPECT_FALSE(PageTable::Addressable(kCap));
  EXPECT_FALSE(PageTable::Addressable(kInvalidPage));

  PageTable table;
  EXPECT_FALSE(table.Present(kCap));
  EXPECT_FALSE(table.Present(kInvalidPage));
  table.Ensure(kCap - 1).bytes = 7;
  EXPECT_EQ(table.Get(kCap - 1).bytes, 7u);
  EXPECT_EQ(table.Size(), kCap);

  Status st;
  auto store = ShardedStore::Create(SmallConfig(), 4,
                                    FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p : {kCap, kCap + 1, kInvalidPage - 1}) {
    EXPECT_EQ(store->Write(p).code(), Status::Code::kInvalidArgument) << p;
    EXPECT_FALSE(store->Contains(p)) << p;
    EXPECT_EQ(store->Delete(p).code(), Status::Code::kNotFound) << p;
  }
  EXPECT_EQ(store->page_table().Size(), 0u);
  EXPECT_EQ(store->AggregatedStats().user_updates, 0u);
  // The rejection is not sticky: the store still takes ordinary writes.
  ASSERT_TRUE(store->Write(3).ok());
  EXPECT_TRUE(store->Contains(3));
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// More client threads than cores, every one doing mixed Write / Delete /
// Contains on four shards, so shard-lock waiters spin out and yield
// while the holder is descheduled (the TSan gate runs this too). Thread t
// owns the interleaved pages t, t+8, ..., which makes it the only writer
// of its pages: it knows their exact state, checks every Contains
// against it, and the per-thread models sum to the exact live count.
TEST(ShardedStoreTest, OversubscribedMixedOpsKeepExactLiveCount) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPagesPerThread = 500;
  constexpr int kOpsPerThread = 20000;
  std::vector<size_t> live(kThreads, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<bool> present(kPagesPerThread, false);
      Rng rng(500 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const PageId slot = rng.NextBounded(kPagesPerThread);
        const PageId p = slot * kThreads + t;
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 60) {
          if (!store->Write(p).ok()) failed.store(true);
          present[slot] = true;
        } else if (dice < 80) {
          const Status s = store->Delete(p);
          const auto want =
              present[slot] ? Status::Code::kOk : Status::Code::kNotFound;
          if (s.code() != want) failed.store(true);
          present[slot] = false;
        } else if (store->Contains(p) != present[slot]) {
          failed.store(true);
        }
      }
      for (bool b : present) live[t] += b ? 1 : 0;
    });
  }
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(failed.load()) << "an op failed or disagreed with the model";

  size_t expected = 0;
  for (size_t n : live) expected += n;
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), expected);
  EXPECT_EQ(store->page_table().CountPresent(), expected);
}

// try_lock takes a free lock, never waits on a held one, and excludes
// like lock(): threads that enter only through try_lock keep a plain
// counter exact (and race-free under TSan).
TEST(ShardedStoreTest, SpinLockTryLockNeverWaits) {
  SpinLock mu;
  ASSERT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  {
    std::unique_lock<SpinLock> held(mu, std::try_to_lock);
    EXPECT_TRUE(held.owns_lock());
    std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
    other.join();
  }
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();

  constexpr int kThreads = 4;
  constexpr int kEntries = 20000;
  uint64_t counter = 0;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kEntries; ++i) {
        while (!mu.try_lock()) std::this_thread::yield();
        ++counter;
        mu.unlock();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kEntries);
}

// More writers than cores on four shards with a small write buffer, so
// writers often find a shard locked by a flush and defer into its
// inbox. Joining the threads and reading the counters, with no other
// store call in between, must show every write applied exactly once.
TEST(ShardedStoreTest, DeferredWritesAreNeverLost) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPages = 5000;
  constexpr int kWritesPerThread = 25000;
  std::vector<std::vector<bool>> written(kThreads,
                                         std::vector<bool>(kPages, false));
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < kWritesPerThread; ++i) {
        const PageId p = rng.NextBounded(kPages);
        if (!store->Write(p).ok()) failed.store(true);
        written[t][p] = true;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  const uint64_t issued = uint64_t{kThreads} * kWritesPerThread;
  uint64_t sum = 0;
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    sum += store->shard(i).stats().user_updates;
  }
  EXPECT_EQ(sum, issued);
  EXPECT_EQ(store->AggregatedStats().user_updates, issued);
  ASSERT_FALSE(failed.load()) << "a write failed";

  size_t distinct = 0;
  for (PageId p = 0; p < kPages; ++p) {
    bool any = false;
    for (const auto& w : written) any = any || w[p];
    distinct += any ? 1 : 0;
  }
  EXPECT_EQ(store->LivePageCount(), distinct);
  const Status inv = store->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// A seal failure on one shard while four threads write to all of them:
// some writes hitting it may have been deferred and acknowledged, but
// from then on the shard refuses work with the original error, whoever
// applied the failing write. The other shards keep working.
TEST(ShardedStoreTest, DeferredFailureIsSticky) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  FaultInjectionBackend* fault = nullptr;
  const BackendFactory backends =
      [&fault](uint32_t shard) -> std::unique_ptr<SegmentBackend> {
    if (shard != 0) return std::make_unique<NullBackend>();
    auto f = std::make_unique<FaultInjectionBackend>();
    f->FailSealsAfter(4, Status::Corruption("injected seal failure"));
    fault = f.get();
    return f;
  };
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st,
                                    backends);
  ASSERT_NE(store, nullptr) << st.ToString();
  ASSERT_NE(fault, nullptr);

  constexpr uint32_t kThreads = 4;
  constexpr PageId kPages = 3000;
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(40 + t);
      for (int i = 0; i < 10000; ++i) {
        const Status s = store->Write(rng.NextBounded(kPages));
        // Only the injected failure may surface.
        EXPECT_TRUE(s.ok() || s.code() == Status::Code::kCorruption)
            << s.ToString();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(fault->seals(), 4);

  PageId on_failed = 0;
  PageId on_healthy = 0;
  while (store->ShardOf(on_failed) != 0) ++on_failed;
  while (store->ShardOf(on_healthy) == 0) ++on_healthy;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(store->Write(on_failed).code(), Status::Code::kCorruption);
    EXPECT_EQ(store->Delete(on_failed).code(), Status::Code::kCorruption);
    EXPECT_EQ(store->Flush().code(), Status::Code::kCorruption);
  }
  EXPECT_TRUE(store->Write(on_healthy).ok());
  const Status inv = store->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// A flush that runs out of space must not lose the writes it had not
// placed yet: they go back into the write buffer, the table keeps
// pointing at them, and the store stays consistent. Sequential writes
// fill the device until the first failure; every write acknowledged
// before it must still be present.
TEST(ShardedStoreTest, FailedFlushKeepsAcknowledgedWrites) {
  for (const Variant v : {Variant::kGreedy, Variant::kMdc}) {
    for (const uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(VariantName(v) + ", " + std::to_string(shards) + " shards");
      StoreConfig cfg;
      ApplyVariantConfig(v, &cfg);
      cfg.segment_bytes = 64 * 1024;
      cfg.num_segments = 64 * shards;
      cfg.write_buffer_segments = 4;
      Status st;
      auto store = ShardedStore::Create(cfg, shards, FactoryFor(v), &st);
      ASSERT_NE(store, nullptr) << st.ToString();
      PageId acked = 0;
      Status s;
      while (acked < 100000 && (s = store->Write(acked)).ok()) ++acked;
      ASSERT_EQ(s.code(), Status::Code::kOutOfSpace);

      const Status inv = store->CheckInvariants();
      EXPECT_TRUE(inv.ok()) << inv.ToString();
      for (PageId p = 0; p < acked; ++p) {
        ASSERT_TRUE(store->Contains(p)) << "page " << p;
      }
      // The failed write itself may or may not have landed, nothing else.
      EXPECT_GE(store->LivePageCount(), acked);
      EXPECT_LE(store->LivePageCount(), acked + 1);
    }
  }
}

// The async seal pipeline must not perturb a single placement decision:
// the same update sequence with async_seal on and off produces identical
// simulation counters (only *when* backend I/O happens changes, never
// what is written where).
TEST(ShardedStoreTest, AsyncSealKeepsSimulationCountersBitForBit) {
  // Checkpointing changes allocation (withheld slots are skipped), so
  // compare like with like: async vs sync at the same checkpoint
  // setting, once plain and once with checkpointing on.
  struct Case {
    Variant v;
    uint32_t checkpoint_interval;
  };
  for (const Case c : {Case{Variant::kGreedy, 0}, Case{Variant::kGreedy, 16},
                       Case{Variant::kMdc, 0}, Case{Variant::kMdc, 16}}) {
    const Variant v = c.v;
    StoreConfig sync_cfg = SmallConfig();
    ApplyVariantConfig(v, &sync_cfg);
    sync_cfg.checkpoint_interval_ops = c.checkpoint_interval;
    StoreConfig async_cfg = sync_cfg;
    async_cfg.async_seal = true;
    async_cfg.seal_queue_depth = 2;

    auto drive = [](const StoreConfig& cfg, Variant var) {
      auto store = ShardedStore::Create(cfg, 1, FactoryFor(var));
      EXPECT_NE(store, nullptr);
      for (PageId p = 0; p < 1500; ++p) EXPECT_TRUE(store->Write(p).ok());
      Rng rng(19);
      for (int i = 0; i < 15000; ++i) {
        EXPECT_TRUE(store->Write(rng.NextBounded(1500)).ok());
      }
      return store;
    };
    auto sync_store = drive(sync_cfg, v);
    auto async_store = drive(async_cfg, v);
    const StoreStats& a = sync_store->shard(0).stats();
    const StoreStats& b = async_store->shard(0).stats();
    EXPECT_EQ(a.user_updates, b.user_updates) << VariantName(v);
    EXPECT_EQ(a.user_pages_written, b.user_pages_written) << VariantName(v);
    EXPECT_EQ(a.gc_pages_written, b.gc_pages_written) << VariantName(v);
    EXPECT_EQ(a.user_segments_sealed, b.user_segments_sealed) << VariantName(v);
    EXPECT_EQ(a.gc_segments_sealed, b.gc_segments_sealed) << VariantName(v);
    EXPECT_EQ(a.segments_cleaned, b.segments_cleaned) << VariantName(v);
    EXPECT_EQ(a.cleanings, b.cleanings) << VariantName(v);
    EXPECT_EQ(a.WriteAmplification(), b.WriteAmplification()) << VariantName(v);
    EXPECT_EQ(a.MeanCleanEmptiness(), b.MeanCleanEmptiness()) << VariantName(v);
    // And the pipeline actually ran.
    EXPECT_GT(async_store->AggregatedStats().seal_queue_enqueued, 0u);
    EXPECT_EQ(sync_store->AggregatedStats().seal_queue_enqueued, 0u);
    EXPECT_TRUE(async_store->CheckInvariants().ok());
  }
}

// A backend that sleeps per seal: the shard's writer outruns the I/O
// thread, so the bounded queue must exert backpressure (counted stalls)
// while every op still applies exactly once, in order.
class SlowBackend : public NullBackend {
 public:
  Status SealSegment(const BackendSegmentRecord& record) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++seals_;
    return NullBackend::SealSegment(record);
  }
  std::atomic<int64_t> seals_{0};
};

TEST(ShardedStoreTest, AsyncSealBackpressureBoundsTheQueue) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;
  cfg.num_segments = 64;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 1;
  SlowBackend* slow = nullptr;
  Status st;
  auto store = ShardedStore::Create(
      cfg, 1, FactoryFor(Variant::kGreedy), &st,
      [&slow](uint32_t) -> std::unique_ptr<SegmentBackend> {
        auto backend = std::make_unique<SlowBackend>();
        slow = backend.get();
        return backend;
      });
  ASSERT_NE(store, nullptr) << st.ToString();

  // ~48 seals at 2 ms each, produced far faster than they drain: with a
  // queue of one, the writer must stall many times.
  for (PageId p = 0; p < 48 * 16; ++p) {
    ASSERT_TRUE(store->Write(p % 768).ok());
  }
  ASSERT_TRUE(store->Close().ok());
  const StoreStats s = store->AggregatedStats();
  EXPECT_GT(s.seal_queue_stalls, 0u);
  EXPECT_GE(s.seal_queue_enqueued, static_cast<uint64_t>(slow->seals_.load()));
  EXPECT_GT(slow->seals_.load(), 10);
}

// Close must drain in-flight seals before the backend shuts: every op
// the store acknowledged reaches the backend even when Close races a
// full queue.
TEST(ShardedStoreTest, CloseDrainsTheSealQueue) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;
  cfg.num_segments = 64;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 2;
  SlowBackend* slow = nullptr;
  Status st;
  auto store = ShardedStore::Create(
      cfg, 1, FactoryFor(Variant::kGreedy), &st,
      [&slow](uint32_t) -> std::unique_ptr<SegmentBackend> {
        auto backend = std::make_unique<SlowBackend>();
        slow = backend.get();
        return backend;
      });
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 12 * 16; ++p) {
    ASSERT_TRUE(store->Write(p).ok());
  }
  // Several seals are still queued behind the slow backend right now.
  ASSERT_TRUE(store->Close().ok());
  const StoreStats s = store->AggregatedStats();
  // Every emitted op was applied — nothing was dropped at shutdown.
  EXPECT_EQ(s.seal_queue_enqueued, static_cast<uint64_t>(slow->seals_.load()));
  EXPECT_GE(slow->seals_.load(), 12);
}

// Async-seal stress under ThreadSanitizer: many writer threads, four
// shards, each with its own I/O thread, plus concurrent reads, deletes,
// checkpoints and stats aggregation — the race detector for the whole
// pipeline (scripts/check.sh --tsan runs this suite).
TEST(ShardedStoreTest, AsyncSealMultiThreadedStressKeepsInvariants) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 4;
  cfg.checkpoint_interval_ops = 32;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPages = 4000;
  constexpr int kOpsPerThread = 15000;
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> deletes_applied{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const PageId p = rng.NextBounded(kPages);
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 85) {
          if (!store->Write(p).ok()) failed.store(true);
          writes.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 92) {
          const Status s = store->Delete(p);
          if (s.ok()) {
            deletes_applied.fetch_add(1, std::memory_order_relaxed);
          } else if (s.code() != Status::Code::kNotFound) {
            failed.store(true);
          }
        } else if (dice < 96) {
          std::vector<uint8_t> data;
          const Status s = store->ReadPage(p, &data);
          if (!s.ok() && s.code() != Status::Code::kNotFound &&
              s.code() != Status::Code::kInvalidArgument) {
            failed.store(true);
          }
        } else if (dice < 99) {
          if (!store->Flush().ok()) failed.store(true);
        } else {
          if (!store->Checkpoint().ok()) failed.store(true);
        }
        if (i % 4096 == 0) (void)store->AggregatedStats();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(failed.load()) << "a store operation failed mid-stress";

  const StoreStats total = store->AggregatedStats();
  EXPECT_EQ(total.user_updates, writes.load());
  EXPECT_EQ(total.deletes, deletes_applied.load());
  EXPECT_GT(total.seal_queue_enqueued, 0u);
  ASSERT_TRUE(store->Close().ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_TRUE(store->shard(i).CheckInvariants().ok()) << "shard " << i;
  }
}

// Multi-threaded parallel runner end to end: aggregate write-amp within a
// few percent of the single-threaded run on the same workload (identical
// update *distribution*, different interleaving), and every shard's
// write-amp close to the shared value.
TEST(ShardedStoreTest, ParallelRunMatchesSingleThreadedWamp) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 32 * 4096;
  cfg.num_segments = 512;
  cfg.clean_trigger_segments = 2;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 4;

  UniformWorkload workload(10000);
  RunSpec spec;
  spec.fill_factor = 0.7;
  spec.warmup_multiplier = 4;
  spec.measure_multiplier = 6;
  spec.seed = 3;

  const RunResult single = RunSynthetic(cfg, Variant::kGreedy, workload, spec);
  ASSERT_TRUE(single.status.ok()) << single.status.ToString();
  const RunResult par = RunSynthetic(cfg, Variant::kGreedy, workload, spec,
                                     /*threads=*/4, /*shards=*/4);
  ASSERT_TRUE(par.status.ok()) << par.status.ToString();
  EXPECT_EQ(par.threads, 4u);
  EXPECT_EQ(par.shards, 4u);

  EXPECT_NEAR(par.wamp, single.wamp, 0.05 * single.wamp + 0.05);
  ASSERT_EQ(par.shard_wamp.size(), 4u);
  for (double w : par.shard_wamp) {
    EXPECT_NEAR(w, single.wamp, 0.10 * single.wamp + 0.10);
  }
}

}  // namespace
}  // namespace lss
