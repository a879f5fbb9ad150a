#include "util/mpsc_queue.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lss {
namespace {

using SmallQueue = BoundedMpscQueue<uint64_t, 8>;

std::vector<uint64_t> DrainAll(SmallQueue& q) {
  std::vector<uint64_t> out;
  q.Drain([&out](uint64_t v) { out.push_back(v); });
  return out;
}

TEST(BoundedMpscQueueTest, DrainsInFifoOrder) {
  SmallQueue q;
  EXPECT_FALSE(q.Pending());
  for (uint64_t v : {5, 3, 9, 1}) ASSERT_TRUE(q.TryPush(v));
  EXPECT_TRUE(q.Pending());
  EXPECT_EQ(DrainAll(q), (std::vector<uint64_t>{5, 3, 9, 1}));
  EXPECT_FALSE(q.Pending());
  EXPECT_TRUE(DrainAll(q).empty());
}

TEST(BoundedMpscQueueTest, FullQueueRejectsPush) {
  SmallQueue q;
  for (uint64_t v = 0; v < 8; ++v) ASSERT_TRUE(q.TryPush(v));
  EXPECT_FALSE(q.TryPush(8));
  EXPECT_FALSE(q.TryPush(9));
  // The rejected values left no trace; draining frees every cell.
  EXPECT_EQ(DrainAll(q), (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(q.TryPush(10));
  EXPECT_EQ(DrainAll(q), (std::vector<uint64_t>{10}));
}

TEST(BoundedMpscQueueTest, DrainStopsAtTailSeenOnEntry) {
  SmallQueue q;
  for (uint64_t v = 1; v <= 3; ++v) ASSERT_TRUE(q.TryPush(v));
  std::vector<uint64_t> first;
  q.Drain([&](uint64_t v) {
    first.push_back(v);
    // Pushed mid-drain: belongs to the next Drain.
    ASSERT_TRUE(q.TryPush(100 + v));
  });
  EXPECT_EQ(first, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(q.Pending());
  EXPECT_EQ(DrainAll(q), (std::vector<uint64_t>{101, 102, 103}));
  EXPECT_FALSE(q.Pending());
}

TEST(BoundedMpscQueueTest, WrapsAroundThreeLaps) {
  SmallQueue q;
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  // Fill-to-full laps, then uneven batches that straddle the wrap point.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.TryPush(next_push++));
    EXPECT_FALSE(q.TryPush(next_push)) << "lap " << lap;
    for (uint64_t v : DrainAll(q)) EXPECT_EQ(v, next_pop++);
  }
  while (next_push < 3 * 8 + 3 * 8) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(next_push++));
    for (uint64_t v : DrainAll(q)) EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(BoundedMpscQueueParallelTest, ProducersRaceOneConsumer) {
  // Four producers push (thread, sequence) pairs, retrying while the
  // queue is full, as one consumer drains concurrently. Every value must
  // arrive exactly once and each producer's values in its push order.
  constexpr uint64_t kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  BoundedMpscQueue<uint64_t, 64> q;
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> producers;
  for (uint64_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush((t << 32) | i)) std::this_thread::yield();
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::vector<uint64_t> next(kProducers, 0);
  uint64_t received = 0;
  auto take = [&](uint64_t v) {
    const uint64_t t = v >> 32;
    ASSERT_LT(t, kProducers);
    EXPECT_EQ(v & 0xffffffffu, next[t]) << "producer " << t;
    next[t] = (v & 0xffffffffu) + 1;
    ++received;
  };
  while (done.load(std::memory_order_acquire) < kProducers) q.Drain(take);
  q.Drain(take);
  for (std::thread& th : producers) th.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_FALSE(q.Pending());
}

}  // namespace
}  // namespace lss
