#include "core/stats.h"

#include <gtest/gtest.h>

#include <string>

#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace lss {
namespace {

TEST(StoreStatsTest, WampDefinition) {
  StoreStats s;
  EXPECT_EQ(s.WriteAmplification(), 0.0);  // no division by zero
  s.user_pages_written = 100;
  s.gc_pages_written = 150;
  EXPECT_DOUBLE_EQ(s.WriteAmplification(), 1.5);
}

// Gives every listed counter a distinct non-zero value (1, 2, 3, ...
// plus `offset`) and returns how many there are.
int FillCounters(StoreStats* s, int offset) {
  int n = 0;
  s->ForEach([&](const char*, auto& value) { value = ++n + offset; });
  return n;
}

TEST(StoreStatsTest, ResetMeasurementZeroesEverything) {
  StoreStats s;
#define LSS_COUNT_ENTRY(type, name, doc) +1
  constexpr int kListed = 0 LSS_STORE_COUNTERS(LSS_COUNT_ENTRY);
#undef LSS_COUNT_ENTRY
  ASSERT_EQ(FillCounters(&s, 0), kListed);  // the whole list, not a stub
  s.mutable_clean_emptiness().Add(0.5);
  s.ResetMeasurement();
  s.ForEach([](const char* name, auto value) {
    EXPECT_EQ(value, decltype(value){0}) << name;
  });
  EXPECT_EQ(s.clean_emptiness().count(), 0u);
  EXPECT_EQ(s.MeanCleanEmptiness(), 0.0);
}

TEST(StoreStatsTest, MergeCoversPipelineCounters) {
  StoreStats a, b;
  FillCounters(&a, 0);
  FillCounters(&b, 100);
  a.mutable_clean_emptiness().Add(0.25);
  b.mutable_clean_emptiness().Add(0.75);
  a.Merge(b);
  int i = 0;
  a.ForEach([&](const char* name, auto value) {
    ++i;
    EXPECT_EQ(value, static_cast<decltype(value)>(i + (i + 100))) << name;
  });
  EXPECT_EQ(a.clean_emptiness().count(), 2u);
  EXPECT_DOUBLE_EQ(a.MeanCleanEmptiness(), 0.5);
}

// ForEach visits each listed counter once, under its member's name.
TEST(StoreStatsTest, ForEachNamesMembers) {
  StoreStats s;
  s.device_fsyncs = 7;
  s.device_fsync_seconds = 0.5;
  int fsyncs = 0, fsync_seconds = 0;
  s.ForEach([&](const char* name, auto value) {
    if (std::string(name) == "device_fsyncs") fsyncs += value == 7;
    if (std::string(name) == "device_fsync_seconds") {
      fsync_seconds += value == 0.5;
    }
  });
  EXPECT_EQ(fsyncs, 1);
  EXPECT_EQ(fsync_seconds, 1);
}

// End-to-end accounting identity: measured Wamp must equal the ratio
// implied by the mean emptiness at clean time, Wamp ~= (1-E)/E scaled by
// the cleaned volume, and the counters must balance: every segment
// cleaned contributed its live pages to gc_pages_written.
TEST(StoreStatsTest, CleaningCountersBalance) {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 64;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  auto store = ShardedStore::Create(
      c, 1, [] { return MakePolicy(Variant::kGreedy); });
  const uint64_t user_pages = c.UserPagesForFillFactor(0.7);
  Rng rng(5);
  for (PageId p = 0; p < user_pages; ++p) ASSERT_TRUE(store->Write(p).ok());
  for (uint64_t i = 0; i < 10 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  const StoreStats& s = store->shard(0).stats();
  ASSERT_GT(s.segments_cleaned, 0u);
  // gc moves = sum over cleaned segments of live pages
  //          = segments_cleaned * S * (1 - mean E)   (all pages 4 KB).
  const double pages_per_seg = 16.0;
  const double expected_moves = static_cast<double>(s.segments_cleaned) *
                                pages_per_seg *
                                (1.0 - s.MeanCleanEmptiness());
  EXPECT_NEAR(static_cast<double>(s.gc_pages_written), expected_moves,
              expected_moves * 0.02);
  // Histogram saw exactly one sample per cleaned segment.
  EXPECT_EQ(s.clean_emptiness().count(), s.segments_cleaned);
  // Every logical update became a physical write (no buffer).
  EXPECT_EQ(s.user_updates, s.user_pages_written);
}

// Warm-up then measure: the measured-phase Wamp must not depend on the
// counters accumulated before ResetMeasurement.
TEST(StoreStatsTest, MeasurementWindowIsolated) {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 64;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  auto store =
      ShardedStore::Create(c, 1, [] { return MakePolicy(Variant::kAge); });
  const uint64_t user_pages = c.UserPagesForFillFactor(0.6);
  Rng rng(6);
  for (PageId p = 0; p < user_pages; ++p) ASSERT_TRUE(store->Write(p).ok());
  for (uint64_t i = 0; i < 5 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  store->shard(0).mutable_stats().ResetMeasurement();
  EXPECT_EQ(store->shard(0).stats().WriteAmplification(), 0.0);
  for (uint64_t i = 0; i < 5 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  EXPECT_GT(store->shard(0).stats().WriteAmplification(), 0.0);
  EXPECT_EQ(store->shard(0).stats().user_updates, 5 * user_pages);
}

}  // namespace
}  // namespace lss
