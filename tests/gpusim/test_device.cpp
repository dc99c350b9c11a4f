#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "gpusim/device.hpp"

namespace vrmr::gpusim {
namespace {

DeviceProps small_props(std::uint64_t vram = 1024) {
  DeviceProps p;
  p.vram_bytes = vram;
  return p;
}

TEST(DeviceMemory, TracksAllocationsAndFrees) {
  Device dev(0, small_props(1000));
  EXPECT_EQ(dev.vram_used(), 0u);
  {
    const DeviceAllocation a = dev.allocate(400, "a");
    EXPECT_EQ(dev.vram_used(), 400u);
    EXPECT_EQ(dev.vram_available(), 600u);
    {
      const DeviceAllocation b = dev.allocate(600, "b");
      EXPECT_EQ(dev.vram_used(), 1000u);
    }
    EXPECT_EQ(dev.vram_used(), 400u);
  }
  EXPECT_EQ(dev.vram_used(), 0u);
}

TEST(DeviceMemory, ThrowsOnExhaustion) {
  Device dev(0, small_props(1000));
  const DeviceAllocation a = dev.allocate(800, "big");
  EXPECT_THROW((void)dev.allocate(300, "overflow"), DeviceOutOfMemory);
  // Failed allocation must not leak accounting.
  EXPECT_EQ(dev.vram_used(), 800u);
  EXPECT_TRUE(dev.can_allocate(200));
  EXPECT_FALSE(dev.can_allocate(201));
}

TEST(DeviceMemory, OomMessageNamesTheAllocation) {
  Device dev(0, small_props(10));
  try {
    (void)dev.allocate(100, "brick-texture");
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_NE(std::string(e.what()).find("brick-texture"), std::string::npos);
  }
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(0, small_props(1000));
  DeviceAllocation a = dev.allocate(500, "a");
  DeviceAllocation b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.vram_used(), 500u);
  DeviceAllocation c;
  c = std::move(b);
  EXPECT_EQ(dev.vram_used(), 500u);
  c.release();
  EXPECT_EQ(dev.vram_used(), 0u);
  c.release();  // double release is a no-op
  EXPECT_EQ(dev.vram_used(), 0u);
}

TEST(DeviceLaunch, CoversEveryThreadExactlyOnce) {
  Device dev(0, small_props());
  std::set<std::pair<int, int>> seen;
  std::mutex m;
  const std::uint64_t threads = dev.launch_2d(
      Int3{3, 2, 1}, Int3{4, 4, 1}, [&](const BlockCtx& block) {
        block.for_each_thread([&](const ThreadCtx& ctx) {
          std::lock_guard<std::mutex> lock(m);
          const bool inserted = seen.emplace(ctx.global_x(), ctx.global_y()).second;
          EXPECT_TRUE(inserted) << "duplicate thread " << ctx.global_x() << ","
                                << ctx.global_y();
        });
      });
  EXPECT_EQ(threads, 3u * 2 * 4 * 4);
  EXPECT_EQ(seen.size(), threads);
  // Full coverage of the 12x8 thread grid.
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 12; ++x) EXPECT_TRUE(seen.count({x, y}));
}

TEST(DeviceLaunch, ThreadCtxGeometryIsConsistent) {
  Device dev(0, small_props());
  std::atomic<int> blocks{0};
  dev.launch_2d(Int3{2, 3, 1}, Int3{8, 4, 1}, [&](const BlockCtx& block) {
    ++blocks;
    EXPECT_LT(block.block_idx.x, block.grid_dim.x);
    EXPECT_LT(block.block_idx.y, block.grid_dim.y);
    block.for_each_thread([&](const ThreadCtx& ctx) {
      EXPECT_GE(ctx.thread_idx.x, 0);
      EXPECT_LT(ctx.thread_idx.x, ctx.block_dim.x);
      EXPECT_GE(ctx.thread_idx.y, 0);
      EXPECT_LT(ctx.thread_idx.y, ctx.block_dim.y);
      EXPECT_EQ(ctx.block_idx, block.block_idx);
      EXPECT_EQ(ctx.global_x(), ctx.block_idx.x * 8 + ctx.thread_idx.x);
      EXPECT_EQ(ctx.global_y(), ctx.block_idx.y * 4 + ctx.thread_idx.y);
    });
  });
  EXPECT_EQ(blocks.load(), 2 * 3);  // the kernel runs once per block
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(DeviceLaunch, RejectsOversizedBlocks) {
  Device dev(0, small_props());
  EXPECT_THROW(dev.launch_2d(Int3{1, 1, 1}, Int3{64, 64, 1}, [](const BlockCtx&) {}),
               vrmr::CheckError);
  EXPECT_THROW(dev.launch_2d(Int3{0, 1, 1}, Int3{8, 8, 1}, [](const BlockCtx&) {}),
               vrmr::CheckError);
}

TEST(DeviceProps, KernelTimeModel) {
  DeviceProps p;
  p.sample_rate_per_s = 1e9;
  p.kernel_launch_overhead_s = 1e-5;
  p.mem_bandwidth_Bps = 1e11;
  // Overhead only.
  EXPECT_DOUBLE_EQ(p.kernel_time(0), 1e-5);
  // 1e9 samples at 1e9/s = 1s + overhead.
  EXPECT_NEAR(p.kernel_time(1000000000), 1.0 + 1e-5, 1e-9);
  // Output bytes add memory time.
  EXPECT_GT(p.kernel_time(1000, 1 << 30), p.kernel_time(1000, 0));
}

TEST(DeviceProps, DefaultsModelTeslaC1060) {
  const DeviceProps p;
  EXPECT_EQ(p.vram_bytes, 4ULL * 1024 * 1024 * 1024);
  EXPECT_EQ(p.multiprocessors, 30);
  EXPECT_GT(p.sample_rate_per_s, 1e8);
}

}  // namespace
}  // namespace vrmr::gpusim
