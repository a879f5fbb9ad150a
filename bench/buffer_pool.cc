// Buffer-pool replacement-policy panel: exact LRU vs CLOCK vs 2Q
// (btree/eviction_policy.h) under three magnifying glasses.
//
//   hit-path   Pure cache hits on a resident working set. The pool's
//              latch_acquisitions counter is read around the Pin burst
//              and the Unpin burst separately, so the panel *proves* the
//              latch economics from counters alone: exact LRU and 2Q pay
//              one partition-latch acquisition per hit (and one per
//              unpin); CLOCK pays zero on both.
//   tpcc       The fig6 trace-generation pipeline at small scale, one
//              run per policy: how well each policy's cache absorbs the
//              TPC-C page-reference stream (hit rate, evictions,
//              latches/op).
//   scan-flood The adversarial pattern for recency caching: a hot set is
//              made resident, then full sequential sweeps of a page
//              space several times the pool size are interleaved with
//              hot-set point reads. Exact LRU lets every sweep purge the
//              hot set; 2Q's probationary A1 queue shields its protected
//              Am set, retaining the pre-scan hit rate. Also drives the
//              ScanFloodWorkload generator (Zipf point ops + sweeps)
//              through each policy for an overall hit-rate comparison.
//
// Environment:
//   LSS_BENCH_SMOKE=1    tiny op counts, for CI
//   LSS_BENCH_JSON=path  machine-readable results (bench_common.h)

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "btree/buffer_pool.h"
#include "btree/eviction_policy.h"
#include "btree/pager.h"
#include "tpcc/trace_gen.h"
#include "workload/generator.h"

namespace lss {
namespace {

const EvictionPolicyKind kPolicies[] = {
    EvictionPolicyKind::kExactLru,
    EvictionPolicyKind::kClock,
    EvictionPolicyKind::kTwoQ,
};

struct Counters {
  uint64_t hits, misses, evictions, latches;
  static Counters Of(const BufferPool& pool) {
    return Counters{pool.hits(), pool.misses(), pool.evictions(),
                    pool.latch_acquisitions()};
  }
  Counters Delta(const Counters& since) const {
    return Counters{hits - since.hits, misses - since.misses,
                    evictions - since.evictions, latches - since.latches};
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// --- Panel 1: latch acquisitions on the pure-hit path -------------------

void HitPathPanel(bool smoke) {
  const size_t capacity = 256;
  const uint64_t resident = 128;
  const uint64_t rounds = smoke ? 20 : 2000;

  std::printf("hit path: %" PRIu64 " resident pages, %" PRIu64
              " pin+unpin rounds, capacity %zu\n",
              resident, rounds, capacity);
  std::printf("  %-6s %12s %14s %16s\n", "policy", "hits",
              "latches/pin", "latches/unpin");
  for (EvictionPolicyKind kind : kPolicies) {
    Pager pager;
    BufferPool pool(&pager, capacity, nullptr, /*partitions=*/0, kind);
    std::vector<PageNo> pages;
    for (uint64_t i = 0; i < resident; ++i) {
      uint8_t* data = nullptr;
      pages.push_back(pool.AllocatePinned(&data));
      pool.Unpin(pages.back(), false);
    }
    uint64_t pin_latches = 0, unpin_latches = 0;
    const Counters before = Counters::Of(pool);
    for (uint64_t r = 0; r < rounds; ++r) {
      const uint64_t l0 = pool.latch_acquisitions();
      for (PageNo p : pages) pool.Pin(p);
      const uint64_t l1 = pool.latch_acquisitions();
      for (PageNo p : pages) pool.Unpin(p, false);
      const uint64_t l2 = pool.latch_acquisitions();
      pin_latches += l1 - l0;
      unpin_latches += l2 - l1;
    }
    const Counters d = Counters::Of(pool).Delta(before);
    const double per_pin = Ratio(pin_latches, d.hits);
    const double per_unpin = Ratio(unpin_latches, d.hits);
    std::printf("  %-6s %12" PRIu64 " %14.3f %16.3f\n",
                EvictionPolicyName(kind).c_str(), d.hits, per_pin, per_unpin);
    bench::Emit(bench::JsonRow("buffer_pool")
                    .Str("row", "hit_path")
                    .Str("policy", EvictionPolicyName(kind))
                    .Num("hits", d.hits)
                    .Num("misses", d.misses)
                    .Num("latches_per_pin_hit", per_pin)
                    .Num("latches_per_unpin", per_unpin));
  }
  std::printf("\n");
}

// --- Panel 2: TPC-C trace generation per policy -------------------------

void TpccPanel(bool smoke) {
  tpcc::TpccConfig tc;
  tc.warehouses = 2;
  tc.districts_per_warehouse = 4;
  tc.customers_per_district = smoke ? 80 : 200;
  tc.items = smoke ? 400 : 1000;
  tc.orders_per_district = smoke ? 80 : 200;
  tc.seed = 17;
  const uint64_t warm = smoke ? 300 : 2000;
  const uint64_t measure = smoke ? 600 : 6000;

  // Size the cache to ~10% of the database, as fig6 does.
  uint64_t db_pages;
  {
    tpcc::TpccDb probe(tc);
    probe.Populate();
    db_pages = probe.PageCount();
  }
  tc.buffer_pool_pages = std::max<size_t>(64, db_pages / 10);

  std::printf("tpcc: %u warehouses, db ~%" PRIu64 " pages, cache %zu pages, "
              "%" PRIu64 " txns\n",
              tc.warehouses, db_pages, tc.buffer_pool_pages, warm + measure);
  std::printf("  %-6s %10s %10s %10s %12s %12s\n", "policy", "hit-rate",
              "evictions", "writes", "latches", "trace-recs");
  for (EvictionPolicyKind kind : kPolicies) {
    tc.pool_policy = kind;
    const tpcc::TpccTraceResult gen =
        tpcc::GenerateTpccTrace(tc, warm, measure, /*checkpoint_every=*/500);
    const double hit_rate = Ratio(gen.pool_hits,
                                  gen.pool_hits + gen.pool_misses);
    std::printf("  %-6s %9.2f%% %10" PRIu64 " %10" PRIu64 " %12" PRIu64
                " %12zu\n",
                EvictionPolicyName(kind).c_str(), hit_rate * 100.0,
                gen.pool_evictions, gen.pool_write_backs,
                gen.pool_latch_acquisitions, gen.trace.Size());
    bench::Emit(bench::JsonRow("buffer_pool")
                    .Str("row", "tpcc")
                    .Str("policy", EvictionPolicyName(kind))
                    .Num("hit_rate", hit_rate)
                    .Num("pool_hits", gen.pool_hits)
                    .Num("pool_misses", gen.pool_misses)
                    .Num("pool_evictions", gen.pool_evictions)
                    .Num("pool_write_backs", gen.pool_write_backs)
                    .Num("pool_latch_acquisitions",
                         gen.pool_latch_acquisitions)
                    .Num("trace_records",
                         static_cast<uint64_t>(gen.trace.Size())));
  }
  std::printf("\n");
}

// --- Panel 3: scan flood ------------------------------------------------

// One Pin/Unpin read of `page`.
void Touch(BufferPool& pool, PageNo page) {
  pool.Pin(page);
  pool.Unpin(page, false);
}

void ScanFloodPanel(bool smoke) {
  const size_t capacity = 512;
  const uint64_t pages = 8 * capacity;   // sweeps are 8x the pool
  const uint64_t hot = 128;              // hot set fits comfortably
  const uint64_t warm_rounds = 4;        // >= 2 touches promote (2Q)
  const uint64_t sweeps = smoke ? 3 : 16;

  std::printf("scan flood: %" PRIu64 " pages, capacity %zu, hot set %" PRIu64
              ", %" PRIu64 " sweeps\n",
              pages, capacity, hot, sweeps);
  std::printf("  %-6s %14s %14s %11s\n", "policy", "pre-scan-hit",
              "flood-hit", "retention");
  for (EvictionPolicyKind kind : kPolicies) {
    Pager pager;
    for (uint64_t i = 0; i < pages; ++i) pager.Allocate();
    BufferPool pool(&pager, capacity, nullptr, /*partitions=*/0, kind);

    // Make the hot set resident and (for 2Q) promoted: several rounds of
    // hot-set reads. Pre-scan hit rate comes from the final round.
    for (uint64_t r = 0; r + 1 < warm_rounds; ++r) {
      for (uint64_t p = 0; p < hot; ++p) Touch(pool, static_cast<PageNo>(p));
    }
    Counters c0 = Counters::Of(pool);
    for (uint64_t p = 0; p < hot; ++p) Touch(pool, static_cast<PageNo>(p));
    const Counters pre = Counters::Of(pool).Delta(c0);
    const double pre_rate = Ratio(pre.hits, pre.hits + pre.misses);

    // The flood: full sequential sweeps, a burst of hot-set reads after
    // each; only the bursts are measured.
    uint64_t flood_hits = 0, flood_ops = 0;
    for (uint64_t s = 0; s < sweeps; ++s) {
      for (uint64_t p = 0; p < pages; ++p) {
        Touch(pool, static_cast<PageNo>(p));
      }
      c0 = Counters::Of(pool);
      for (uint64_t p = 0; p < hot; ++p) Touch(pool, static_cast<PageNo>(p));
      const Counters d = Counters::Of(pool).Delta(c0);
      flood_hits += d.hits;
      flood_ops += d.hits + d.misses;
    }
    const double flood_rate = Ratio(flood_hits, flood_ops);
    const double retention = pre_rate > 0 ? flood_rate / pre_rate : 0.0;
    std::printf("  %-6s %13.2f%% %13.2f%% %10.2f%%\n",
                EvictionPolicyName(kind).c_str(), pre_rate * 100.0,
                flood_rate * 100.0, retention * 100.0);
    bench::Emit(bench::JsonRow("buffer_pool")
                    .Str("row", "scan_flood")
                    .Str("policy", EvictionPolicyName(kind))
                    .Num("pre_scan_hit_rate", pre_rate)
                    .Num("flood_hit_rate", flood_rate)
                    .Num("hot_set_retention", retention));
  }

  // Whole-workload comparison through the generator benches also use.
  const uint64_t ops = smoke ? 20000 : 200000;
  ScanFloodWorkload workload(pages, 0.99, /*point_ops_per_sweep=*/3 * pages);
  std::printf("  scan-flood generator (theta 0.99, %" PRIu64 " ops):\n", ops);
  for (EvictionPolicyKind kind : kPolicies) {
    Pager pager;
    for (uint64_t i = 0; i < pages; ++i) pager.Allocate();
    BufferPool pool(&pager, capacity, nullptr, /*partitions=*/0, kind);
    Rng rng(42);
    for (uint64_t i = 0; i < ops; ++i) {
      Touch(pool, static_cast<PageNo>(workload.NextPage(rng)));
    }
    const Counters d = Counters::Of(pool);
    const double rate = Ratio(d.hits, d.hits + d.misses);
    std::printf("    %-6s hit-rate %6.2f%%  evictions %" PRIu64
                "  latches/op %.3f\n",
                EvictionPolicyName(kind).c_str(), rate * 100.0, d.evictions,
                Ratio(d.latches, d.hits + d.misses));
    bench::Emit(bench::JsonRow("buffer_pool")
                    .Str("row", "scan_flood_generator")
                    .Str("policy", EvictionPolicyName(kind))
                    .Num("hit_rate", rate)
                    .Num("evictions", d.evictions)
                    .Num("latches_per_op", Ratio(d.latches, d.hits + d.misses)));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace lss

int main() {
  const bool smoke = lss::bench::SmokeMode();
  std::printf("Buffer-pool eviction policies: exact LRU vs CLOCK vs 2Q%s\n\n",
              smoke ? " (smoke)" : "");
  lss::HitPathPanel(smoke);
  lss::TpccPanel(smoke);
  lss::ScanFloodPanel(smoke);
  return 0;
}
