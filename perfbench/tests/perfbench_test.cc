// The benchmark's own tests: the percentile helper, and parity of traced
// and untraced runs (the tracing decorators must forward every call, so
// cleaning decisions — Wamp and the shard counters — stay identical).

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankAndSampleCount) {
  std::vector<uint64_t> ns(1000);
  std::iota(ns.begin(), ns.end(), 1u);  // 1..1000 ns
  std::shuffle(ns.begin(), ns.end(), std::mt19937(7));
  LatencyHistogram h;
  for (uint64_t v : ns) h.Record(v);
  const LatencySummary s = Summarize(h);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.p50_us, 0.500);
  EXPECT_DOUBLE_EQ(s.p99_us, 0.990);
  EXPECT_DOUBLE_EQ(s.p999_us, 0.999);
  EXPECT_EQ(h.sum_ns(), 500500u);
}

TEST(PercentileTest, SmallEmptyAndMergedSets) {
  LatencyHistogram one;
  one.Record(42);
  const LatencySummary s = Summarize(one);
  EXPECT_EQ(s.samples, 1u);
  EXPECT_DOUBLE_EQ(s.p50_us, 0.042);
  EXPECT_DOUBLE_EQ(s.p999_us, 0.042);

  const LatencySummary e = Summarize(LatencyHistogram{});
  EXPECT_EQ(e.samples, 0u);
  EXPECT_DOUBLE_EQ(e.p50_us, 0.0);

  LatencyHistogram two;
  two.Record(10);
  two.Merge(one);
  EXPECT_EQ(two.count(), 2u);
  EXPECT_EQ(two.NearestRank(0.5), 10u);
  EXPECT_EQ(two.NearestRank(0.51), 42u);
}

TEST(PercentileTest, LargeValuesWithinOnePercent) {
  LatencyHistogram h;
  for (uint64_t v : {3000ull, 1234567ull, 987654321ull, 1ull << 50}) {
    h.Record(v);
    const uint64_t got = h.NearestRank(1.0);
    const uint64_t want = std::min<uint64_t>(v, (1ull << 40) - 1);
    EXPECT_LE(got, want);
    EXPECT_GE(static_cast<double>(got), want * (1 - 1.0 / 128)) << v;
  }
  EXPECT_EQ(h.count(), 4u);
}

TEST(PercentileTest, ReportCarriesSampleCount) {
  Report r;
  r.Add("x_p50_us", 1.5, "us", 1234);
  ASSERT_NE(r.Find("x_p50_us"), nullptr);
  EXPECT_EQ(r.Find("x_p50_us")->samples, 1234u);
  EXPECT_NE(r.ToJson().find("\"samples\": 1234"), std::string::npos);
  EXPECT_THROW(r.Add("x_p50_us", 2.0, "us"), std::logic_error);
}

// Records the hooks whose forwarding carries no timing.
class HookRecordingBackend : public lss::NullBackend {
 public:
  void SetDeferredSync(bool on) override { deferred = on; }
  void Abandon() override { ++abandons; }
  lss::Status Close() override {
    ++closes;
    return lss::Status::OK();
  }
  bool deferred = false;
  int abandons = 0;
  int closes = 0;
};

TEST(DecoratorTest, ForwardsHooksWithoutTiming) {
  Tracer tracer(1);
  auto inner = std::make_unique<HookRecordingBackend>();
  HookRecordingBackend* rec = inner.get();
  auto traced = TraceBackend(std::move(inner), &tracer, 3);
  traced->SetDeferredSync(true);
  EXPECT_TRUE(rec->deferred);
  traced->Abandon();  // must not turn into Close()
  EXPECT_EQ(rec->abandons, 1);
  EXPECT_EQ(rec->closes, 0);
  EXPECT_EQ(traced->name(), "null");

  // Multi-log cleans one segment at a time; the decorator must say so.
  auto policy =
      TracePolicy(lss::MakePolicy(lss::Variant::kMultiLog), &tracer);
  EXPECT_EQ(policy->PreferredBatch(16), 1u);
  EXPECT_EQ(policy->name(), lss::MakePolicy(lss::Variant::kMultiLog)->name());
}

TEST(DecoratorTest, RecordsOnlyWhileActive) {
  Tracer tracer(1);
  auto traced = TraceBackend(std::make_unique<lss::NullBackend>(), &tracer, 2);
  EXPECT_TRUE(traced->Sync().ok());
  EXPECT_EQ(tracer.Durations(SpanKind::kBackendSync).count(), 0u);
  tracer.SetActive(true);
  EXPECT_TRUE(traced->Sync().ok());
  tracer.SetActive(false);
  EXPECT_EQ(tracer.Durations(SpanKind::kBackendSync).count(), 1u);
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);  // a root, sampled 1 in 1
  EXPECT_EQ(spans[0].tag, 2u);
  EXPECT_EQ(spans[0].parent, 0u);
}

// Metrics that depend only on the cleaner's decisions, which the
// decorators must not change.
const char* const kDecisionMetrics[] = {
    "wamp",
    "shard.cleanings",
    "shard.segments_cleaned",
    "shard.gc_pages_written",
    "shard.user_pages_written",
    "shard.clean_emptiness_mean",
    "shard.wamp_spread",
};

void ExpectParity(RunOptions o) {
  const std::string dir =
      (std::filesystem::current_path() / ("parity-" + o.workload)).string();
  std::filesystem::create_directories(dir);
  o.dir = dir;
  o.traced = false;
  const RunOutcome plain = RunWorkload(o);
  o.traced = true;
  const RunOutcome traced = RunWorkload(o);
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(plain.correct) << plain.errors.front();
  ASSERT_TRUE(traced.correct) << traced.errors.front();
  EXPECT_EQ(plain.attempted, traced.attempted);
  for (const char* name : kDecisionMetrics) {
    const Metric* a = plain.report.Find(name);
    const Metric* b = traced.report.Find(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->value, b->value) << name;
  }
  EXPECT_GT(plain.report.Find("shard.cleanings")->value, 0.0);
  // The traced run saw the calls the decorators time.
  EXPECT_GT(traced.report.Find("policy.select_calls")->value, 0.0);
  EXPECT_GT(traced.report.Find("trace.spans")->value, 0.0);
  EXPECT_EQ(plain.report.Find("trace.spans")->value, 0.0);
}

TEST(DecoratorParityTest, UpdateSkewOneClient) {
  RunOptions o;
  o.workload = "update-skew";
  o.seed = 5;
  o.clients = 1;
  o.segments = 256;
  o.warmup_ops = 60000;
  o.ops_per_client = 60000;
  ExpectParity(o);
}

TEST(DecoratorParityTest, DurableRw) {
  RunOptions o;
  o.workload = "durable-rw";
  o.seed = 5;
  o.segments = 128;
  o.warmup_ops = 30000;
  o.ops_per_client = 30000;
  ExpectParity(o);
}

}  // namespace
}  // namespace perfbench
