#include "bench/bench_common.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

namespace lss::bench {
namespace {

// Clears the variable on construction and destruction so tests cannot
// leak knob state into each other (or inherit it from the harness).
struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) { unsetenv(name_); }
  ~EnvGuard() { unsetenv(name_); }
  void Set(const char* v) { setenv(name_, v, 1); }
  const char* name_;
};

TEST(BenchEnvTest, ScaleFactorDefaultsAndParses) {
  EnvGuard g("LSS_BENCH_SCALE");
  EXPECT_EQ(ScaleFactor(), 1u);
  g.Set("3");
  EXPECT_EQ(ScaleFactor(), 3u);
}

TEST(BenchEnvTest, ScaleFactorRejectsGarbageNamingTheVariable) {
  // Regression: these used to silently clamp to 1, so a typo'd knob ran
  // the whole experiment at the wrong scale. Now the bench exits(2) and
  // the message names the offending variable.
  EnvGuard g("LSS_BENCH_SCALE");
  g.Set("fast");
  EXPECT_EXIT(ScaleFactor(), ::testing::ExitedWithCode(2),
              "LSS_BENCH_SCALE");
  g.Set("4x");
  EXPECT_EXIT(ScaleFactor(), ::testing::ExitedWithCode(2),
              "LSS_BENCH_SCALE");
  g.Set("0");
  EXPECT_EXIT(ScaleFactor(), ::testing::ExitedWithCode(2),
              "LSS_BENCH_SCALE");
  g.Set("-2");
  EXPECT_EXIT(ScaleFactor(), ::testing::ExitedWithCode(2),
              "LSS_BENCH_SCALE");
}

TEST(BenchEnvTest, CheckpointIntervalDefaultsAndParses) {
  EnvGuard g("LSS_BENCH_CKPT_INTERVAL");
  EXPECT_EQ(CheckpointInterval(2000), 2000u);
  g.Set("0");  // 0 disables checkpointing: valid, not a fallback
  EXPECT_EQ(CheckpointInterval(2000), 0u);
  g.Set("500");
  EXPECT_EQ(CheckpointInterval(2000), 500u);
}

TEST(BenchEnvTest, CheckpointIntervalRejectsGarbageNamingTheVariable) {
  EnvGuard g("LSS_BENCH_CKPT_INTERVAL");
  g.Set("-1");
  EXPECT_EXIT(CheckpointInterval(2000), ::testing::ExitedWithCode(2),
              "LSS_BENCH_CKPT_INTERVAL");
  g.Set("every5k");
  EXPECT_EXIT(CheckpointInterval(2000), ::testing::ExitedWithCode(2),
              "LSS_BENCH_CKPT_INTERVAL");
}

TEST(BenchEnvTest, EnvIntEnforcesBounds) {
  EnvGuard g("LSS_BENCH_TEST_KNOB");
  EXPECT_EQ(EnvInt("LSS_BENCH_TEST_KNOB", 7, 0, 100), 7);
  g.Set("42");
  EXPECT_EQ(EnvInt("LSS_BENCH_TEST_KNOB", 7, 0, 100), 42);
  g.Set("101");
  EXPECT_EXIT(EnvInt("LSS_BENCH_TEST_KNOB", 7, 0, 100),
              ::testing::ExitedWithCode(2), "LSS_BENCH_TEST_KNOB");
  g.Set("99999999999999999999");  // out of long long range
  EXPECT_EXIT(EnvInt("LSS_BENCH_TEST_KNOB", 7, 0, 100),
              ::testing::ExitedWithCode(2), "LSS_BENCH_TEST_KNOB");
}

TEST(BenchEnvTest, EnvIntListParsesAndDefaults) {
  EnvGuard g("LSS_BENCH_THREADS");
  EXPECT_EQ(EnvIntList("LSS_BENCH_THREADS", {1, 2}, 1, kMaxThreads),
            (std::vector<int64_t>{1, 2}));
  g.Set("1,4");
  EXPECT_EQ(EnvIntList("LSS_BENCH_THREADS", {1, 2}, 1, kMaxThreads),
            (std::vector<int64_t>{1, 4}));
  g.Set("1024");
  EXPECT_EQ(EnvIntList("LSS_BENCH_THREADS", {1, 2}, 1, kMaxThreads),
            (std::vector<int64_t>{1024}));
}

TEST(BenchEnvTest, EnvIntListRejectsGarbageNamingTheVariable) {
  // Regression: the thread sweep used a bare strtol, so "4x" ran 4
  // threads, "fast" and "0" fell back to the default sweep, and values
  // past 2^32 wrapped. Only the parser runs here; no thread is started.
  EnvGuard g("LSS_BENCH_THREADS");
  for (const char* bad : {"4x", "fast", "0", "2,,4", "1025", "4,", ",4",
                          "4294967297"}) {
    SCOPED_TRACE(bad);
    g.Set(bad);
    EXPECT_EXIT(EnvIntList("LSS_BENCH_THREADS", {1}, 1, kMaxThreads),
                ::testing::ExitedWithCode(2), "LSS_BENCH_THREADS");
  }
}

}  // namespace
}  // namespace lss::bench
