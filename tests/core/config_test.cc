#include "core/config.h"

#include <gtest/gtest.h>

namespace lss {
namespace {

TEST(StoreConfigTest, DefaultIsValid) {
  EXPECT_TRUE(StoreConfig{}.Validate().ok());
}

TEST(StoreConfigTest, RejectsZeroSizes) {
  StoreConfig c;
  c.page_bytes = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = StoreConfig{};
  c.segment_bytes = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(StoreConfigTest, RejectsPageLargerThanSegment) {
  StoreConfig c;
  c.segment_bytes = 4096;
  c.page_bytes = 8192;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(StoreConfigTest, RejectsNonDivisibleSegment) {
  StoreConfig c;
  c.segment_bytes = 10000;  // not a multiple of 4096
  EXPECT_FALSE(c.Validate().ok());
}

TEST(StoreConfigTest, RejectsTinyDevice) {
  StoreConfig c;
  c.num_segments = 2;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(StoreConfigTest, RejectsHugeTrigger) {
  StoreConfig c;
  c.clean_trigger_segments = c.num_segments;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(StoreConfigTest, AsyncSealNeedsAQueue) {
  StoreConfig c;
  c.async_seal = true;
  EXPECT_TRUE(c.Validate().ok());  // default queue depth
  c.seal_queue_depth = 0;
  EXPECT_FALSE(c.Validate().ok());
  // A zero queue depth only matters when the pipeline is on.
  c.async_seal = false;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(StoreConfigTest, CheckpointIntervalIsBackendAgnostic) {
  // Checkpointing works in sync and async modes, with any backend.
  StoreConfig c;
  c.checkpoint_interval_ops = 32;
  EXPECT_TRUE(c.Validate().ok());
  c.async_seal = true;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(StoreConfigTest, FileBackendRequiresDirectory) {
  StoreConfig c;
  c.backend = BackendKind::kFile;
  EXPECT_FALSE(c.Validate().ok());
  c.backend_dir = "/tmp/somewhere";
  EXPECT_TRUE(c.Validate().ok());
}

TEST(StoreConfigTest, GeometryHelpers) {
  StoreConfig c;
  c.segment_bytes = 1u << 20;
  c.page_bytes = 4096;
  c.num_segments = 100;
  EXPECT_EQ(c.PagesPerSegment(), 256u);
  EXPECT_EQ(c.PhysicalPages(), 25600u);
  EXPECT_EQ(c.UserPagesForFillFactor(0.5), 12800u);
}

TEST(StoreConfigTest, PaperGeometry) {
  // §6.1.1: 4KB pages, 2MB segments -> 512 pages/segment; 100GB device
  // -> 51200 segments.
  StoreConfig c;
  c.segment_bytes = 2u << 20;
  c.page_bytes = 4096;
  c.num_segments = 51200;
  c.clean_trigger_segments = 32;
  c.clean_batch_segments = 64;
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.PagesPerSegment(), 512u);
  EXPECT_EQ(c.PhysicalPages() * 4096, 100ull << 30);
}

}  // namespace
}  // namespace lss
