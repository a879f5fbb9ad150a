// Micro-benchmarks for the B+-tree storage engine substrate: point ops
// and scans through a small buffer pool (single- and multi-threaded over
// one shared latch-coupled tree), and TPC-C transaction throughput
// including a workers-per-warehouse sweep. Explains the cost of
// regenerating the Figure 6 trace.

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "btree/btree.h"
#include "tpcc/tpcc_db.h"
#include "util/rng.h"

namespace lss {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_BtreeInsert(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  uint64_t i = 0;
  const std::string value(120, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(Key(i++), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeGet(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  const std::string value(120, 'v');
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) tree.Insert(Key(i), value).ok();
  Rng rng(1);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(Key(rng.NextBounded(kN)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeGet);

void BM_BtreeScan100(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) tree.Insert(Key(i), "v").ok();
  Rng rng(2);
  for (auto _ : state) {
    auto it = tree.Seek(Key(rng.NextBounded(kN - 200)));
    int n = 0;
    while (it.Valid() && n < 100) {
      benchmark::DoNotOptimize(it.key().data());
      it.Next();
      ++n;
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BtreeScan100);

// --- Concurrent tree benchmarks -----------------------------------------
//
// One shared tree, N benchmark threads. Thread 0 builds the tree before
// the timed region (google-benchmark barriers all threads at the loop
// start/stop), every thread then drives its own op stream.

void BM_BtreeGetParallel(benchmark::State& state) {
  static Pager* pager;
  static BufferPool* pool;
  static BTree* tree;
  constexpr uint64_t kN = 100000;
  if (state.thread_index() == 0) {
    pager = new Pager();
    pool = new BufferPool(pager, 4096);
    tree = new BTree(pool);
    const std::string value(120, 'v');
    for (uint64_t i = 0; i < kN; ++i) tree->Insert(Key(i), value).ok();
  }
  Rng rng(100 + state.thread_index());
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(Key(rng.NextBounded(kN)), &out));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete tree;
    delete pool;
    delete pager;
  }
}
BENCHMARK(BM_BtreeGetParallel)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_BtreeMixedParallel(benchmark::State& state) {
  // 20% Put / 10% Delete / 70% Get per thread, disjoint key ranges in
  // one shared tree: the optimistic write descent under read pressure.
  static Pager* pager;
  static BufferPool* pool;
  static BTree* tree;
  constexpr uint64_t kRange = 20000;
  constexpr int kMaxThreads = 8;
  if (state.thread_index() == 0) {
    pager = new Pager();
    pool = new BufferPool(pager, 4096);
    tree = new BTree(pool);
    const std::string value(100, 'v');
    for (int t = 0; t < kMaxThreads; ++t) {
      for (uint64_t i = 0; i < kRange; i += 2) {
        tree->Insert(Key(t * 1000000 + i), value).ok();
      }
    }
  }
  const uint64_t base = state.thread_index() * 1000000ull;
  Rng rng(200 + state.thread_index());
  const std::string value(100, 'w');
  std::string out;
  for (auto _ : state) {
    const uint64_t k = base + rng.NextBounded(kRange);
    const uint32_t dice = static_cast<uint32_t>(rng.NextBounded(10));
    if (dice < 2) {
      benchmark::DoNotOptimize(tree->Put(Key(k), value));
    } else if (dice < 3) {
      benchmark::DoNotOptimize(tree->Delete(Key(k)));
    } else {
      benchmark::DoNotOptimize(tree->Get(Key(k), &out));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete tree;
    delete pool;
    delete pager;
  }
}
BENCHMARK(BM_BtreeMixedParallel)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_TpccTransaction(benchmark::State& state) {
  tpcc::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 10;
  cfg.customers_per_district = 300;
  cfg.items = 2000;
  cfg.orders_per_district = 300;
  cfg.buffer_pool_pages = 1024;
  tpcc::TpccDb db(cfg);
  db.Populate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.RunNextTransaction());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccTransaction);

void BM_TpccWorkersPerWarehouse(benchmark::State& state) {
  // Fixed 2 warehouses, N worker sessions: at 4 and 8 threads several
  // sessions share a partition group, measuring how throughput scales
  // when workers outnumber warehouses (the latch-coupled engine's
  // headline capability; the old engine clamped workers to warehouses).
  static tpcc::TpccDb* db;
  static std::vector<tpcc::TpccDb::Session>* sessions;
  if (state.thread_index() == 0) {
    tpcc::TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.districts_per_warehouse = 4;
    cfg.customers_per_district = 200;
    cfg.items = 1000;
    cfg.orders_per_district = 200;
    cfg.buffer_pool_pages = 1024;
    cfg.workers = static_cast<uint32_t>(state.threads());
    db = new tpcc::TpccDb(cfg);
    db->Populate();
    sessions = new std::vector<tpcc::TpccDb::Session>();
    for (uint32_t t = 0; t < db->workers(); ++t) {
      sessions->push_back(db->MakeSession(t));
    }
  }
  // Thread 0 builds `sessions` before the loop's start barrier; the other
  // threads may only look theirs up once they are past that barrier.
  tpcc::TpccDb::Session* session = nullptr;
  for (auto _ : state) {
    if (session == nullptr) session = &(*sessions)[state.thread_index()];
    benchmark::DoNotOptimize(db->RunNextTransaction(*session));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete sessions;
    delete db;
  }
}
BENCHMARK(BM_TpccWorkersPerWarehouse)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace lss

BENCHMARK_MAIN();
