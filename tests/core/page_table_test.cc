#include "core/page_table.h"

#include <gtest/gtest.h>

namespace lss {
namespace {

TEST(PageLocationTest, DefaultIsAbsent) {
  PageLocation loc;
  EXPECT_FALSE(loc.Present());
  EXPECT_FALSE(loc.InBuffer());
}

TEST(PageLocationTest, BufferSentinel) {
  PageLocation loc{kBufferSegment, 3};
  EXPECT_TRUE(loc.Present());
  EXPECT_TRUE(loc.InBuffer());
}

TEST(PageLocationTest, SegmentLocation) {
  PageLocation loc{7, 12};
  EXPECT_TRUE(loc.Present());
  EXPECT_FALSE(loc.InBuffer());
}

TEST(PageTableTest, EnsureGrowsTable) {
  PageTable t;
  EXPECT_EQ(t.Size(), 0u);
  t.Ensure(9);
  EXPECT_EQ(t.Size(), 10u);
  EXPECT_FALSE(t.Present(9));
  EXPECT_FALSE(t.Present(1000));  // out of range is simply absent
}

TEST(PageTableTest, SetAndLookup) {
  PageTable t;
  PageMeta& m = t.Ensure(4);
  m.loc = PageLocation{2, 5};
  m.bytes = 4096;
  m.last_update = 77;
  EXPECT_TRUE(t.Present(4));
  EXPECT_EQ(t.Get(4).loc.segment, 2u);
  EXPECT_EQ(t.Get(4).loc.index, 5u);
  EXPECT_EQ(t.Get(4).bytes, 4096u);
  EXPECT_EQ(t.Get(4).last_update, 77u);
}

TEST(PageTableTest, CountPresent) {
  PageTable t;
  t.Ensure(10);
  EXPECT_EQ(t.CountPresent(), 0u);
  t.Ensure(3).loc = PageLocation{0, 0};
  t.Ensure(7).loc = PageLocation{kBufferSegment, 1};
  EXPECT_EQ(t.CountPresent(), 2u);
}

TEST(PageTableTest, EnsureIsIdempotent) {
  PageTable t;
  t.Ensure(5).bytes = 123;
  EXPECT_EQ(t.Ensure(5).bytes, 123u);
  EXPECT_EQ(t.Size(), 6u);
}

}  // namespace
}  // namespace lss
