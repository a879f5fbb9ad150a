#include "core/write_buffer.h"

#include <gtest/gtest.h>

namespace lss {
namespace {

BufferedWrite MakeWrite(PageId p, uint32_t bytes, double up2,
                        bool first = false) {
  BufferedWrite w;
  w.page = p;
  w.bytes = bytes;
  w.up2 = up2;
  w.first_write = first;
  return w;
}

TEST(WriteBufferTest, StartsEmpty) {
  WriteBuffer b(1 << 20);
  EXPECT_TRUE(b.Empty());
  EXPECT_FALSE(b.Full());
  EXPECT_EQ(b.bytes(), 0u);
}

TEST(WriteBufferTest, AddAccumulatesBytes) {
  WriteBuffer b(1 << 20);
  EXPECT_EQ(b.Add(MakeWrite(1, 4096, 0)), 0u);
  EXPECT_EQ(b.Add(MakeWrite(2, 4096, 0)), 1u);
  EXPECT_EQ(b.bytes(), 8192u);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(WriteBufferTest, FullAtCapacity) {
  WriteBuffer b(8192);
  b.Add(MakeWrite(1, 4096, 0));
  EXPECT_FALSE(b.Full());
  b.Add(MakeWrite(2, 4096, 0));
  EXPECT_TRUE(b.Full());
}

TEST(WriteBufferTest, DrainReturnsArrivalOrderAndEmpties) {
  WriteBuffer b(1 << 20);
  b.Add(MakeWrite(3, 4096, 1.0));
  b.Add(MakeWrite(1, 4096, 2.0));
  b.Add(MakeWrite(2, 4096, 3.0));
  auto out = b.Drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].page, 3u);
  EXPECT_EQ(out[1].page, 1u);
  EXPECT_EQ(out[2].page, 2u);
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.bytes(), 0u);
}

TEST(WriteBufferTest, ReusableAfterDrain) {
  WriteBuffer b(4096);
  b.Add(MakeWrite(1, 4096, 0));
  EXPECT_TRUE(b.Full());
  b.Drain();
  EXPECT_FALSE(b.Full());
  EXPECT_EQ(b.Add(MakeWrite(2, 4096, 0)), 0u);  // slots restart
}

}  // namespace
}  // namespace lss
