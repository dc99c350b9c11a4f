#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "io/brick_file.hpp"
#include "io/brick_streamer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace vrmr::io {
namespace {

namespace fs = std::filesystem;

class BrickStreamerTest : public testing::Test {
 protected:
  static constexpr int kBricks = 6;
  static constexpr Int3 kDims{4, 4, 4};

  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("vrmr_streamer_" + std::to_string(::getpid()) + ".vrbf");
    BrickFileWriter writer(path_, Int3{24, 4, 4}, 4, 0, kBricks);
    for (int i = 0; i < kBricks; ++i) {
      writer.append_brick(Int3{i, 0, 0}, kDims, payload(i));
    }
    writer.finalize();
    reader_ = std::make_unique<BrickFileReader>(
        std::move(BrickFileReader::open(path_).value()));
  }
  void TearDown() override { fs::remove(path_); }

  static std::vector<float> payload(int brick) {
    std::vector<float> v(static_cast<size_t>(kDims.volume()));
    Pcg32 rng(static_cast<std::uint64_t>(brick) + 1);
    for (auto& x : v) x = rng.next_float();
    return v;
  }

  fs::path path_;
  std::unique_ptr<BrickFileReader> reader_;
};

TEST_F(BrickStreamerTest, DeliversScheduleInOrder) {
  std::vector<int> schedule(kBricks);
  std::iota(schedule.begin(), schedule.end(), 0);
  BrickStreamer streamer(*reader_, schedule, /*window=*/2);
  for (int i = 0; i < kBricks; ++i) {
    EXPECT_EQ(streamer.next_brick(), i);
    EXPECT_EQ(streamer.try_consume().value(), payload(i));
  }
  EXPECT_TRUE(streamer.done());
  EXPECT_EQ(streamer.reads(), static_cast<std::uint64_t>(kBricks));
}

TEST_F(BrickStreamerTest, WindowBoundsResidency) {
  std::vector<int> schedule(kBricks);
  std::iota(schedule.begin(), schedule.end(), 0);
  for (int window : {1, 2, 3}) {
    BrickStreamer streamer(*reader_, schedule, window);
    while (!streamer.done()) {
      EXPECT_LE(streamer.resident(), static_cast<std::size_t>(window));
      (void)streamer.try_consume().value();
    }
  }
}

TEST_F(BrickStreamerTest, PrefetchKeepsWindowFull) {
  std::vector<int> schedule{0, 1, 2, 3};
  BrickStreamer streamer(*reader_, schedule, /*window=*/3);
  // Constructor prefetches the first `window` bricks.
  EXPECT_EQ(streamer.resident(), 3u);
  EXPECT_EQ(streamer.reads(), 3u);
  (void)streamer.try_consume().value();  // consume 0, prefetch 3
  EXPECT_EQ(streamer.resident(), 3u);
  EXPECT_EQ(streamer.reads(), 4u);
}

TEST_F(BrickStreamerTest, ArbitrarySchedulesAndRepeats) {
  const std::vector<int> schedule{5, 0, 5, 2, 0};
  BrickStreamer streamer(*reader_, schedule, /*window=*/2);
  EXPECT_EQ(streamer.try_consume().value(), payload(5));
  EXPECT_EQ(streamer.try_consume().value(), payload(0));
  EXPECT_EQ(streamer.try_consume().value(), payload(5));  // re-read after retirement
  EXPECT_EQ(streamer.try_consume().value(), payload(2));
  EXPECT_EQ(streamer.try_consume().value(), payload(0));
  EXPECT_TRUE(streamer.done());
}

TEST_F(BrickStreamerTest, CountsBytes) {
  BrickStreamer streamer(*reader_, {0, 1}, 1);
  (void)streamer.try_consume().value();
  (void)streamer.try_consume().value();
  EXPECT_EQ(streamer.bytes_read(),
            2ull * static_cast<std::uint64_t>(kDims.volume()) * sizeof(float));
}

TEST_F(BrickStreamerTest, RejectsBadArguments) {
  EXPECT_THROW(BrickStreamer(*reader_, {0}, 0), vrmr::CheckError);       // bad window
  EXPECT_THROW(BrickStreamer(*reader_, {99}, 1), vrmr::CheckError);     // bad brick id
  BrickStreamer streamer(*reader_, {0}, 1);
  (void)streamer.try_consume().value();
  EXPECT_THROW((void)streamer.try_consume(), vrmr::CheckError);  // exhausted
  EXPECT_THROW((void)streamer.next_brick(), vrmr::CheckError);
}

TEST_F(BrickStreamerTest, CompressedFileCountsStoredBytesWithSameReads) {
  // A compressed (v2) file changes what a read COSTS, not how many
  // reads happen: reads() matches the raw-file schedule exactly while
  // bytes_read() counts the encoded streams — here uniform bricks that
  // collapse to one RLE pair each — and consumers still get the full
  // logical payloads.
  const fs::path packed =
      fs::temp_directory_path() /
      ("vrmr_streamer_rle_" + std::to_string(::getpid()) + ".vrbf");
  {
    BrickFileWriter writer(packed, Int3{24, 4, 4}, 4, 0, kBricks,
                           compress::Codec::Rle);
    for (int i = 0; i < kBricks; ++i) {
      const std::vector<float> uniform(static_cast<size_t>(kDims.volume()),
                                       0.125f * static_cast<float>(i));
      writer.append_brick(Int3{i, 0, 0}, kDims, uniform);
    }
    writer.finalize();
  }
  BrickFileReader reader = std::move(BrickFileReader::open(packed).value());
  std::vector<int> schedule(kBricks);
  std::iota(schedule.begin(), schedule.end(), 0);
  BrickStreamer streamer(reader, schedule, /*window=*/2);
  for (int i = 0; i < kBricks; ++i) {
    const std::vector<float> voxels = streamer.try_consume().value();
    EXPECT_EQ(voxels, std::vector<float>(static_cast<size_t>(kDims.volume()),
                                         0.125f * static_cast<float>(i)));
  }
  EXPECT_EQ(streamer.reads(), static_cast<std::uint64_t>(kBricks));
  EXPECT_EQ(streamer.bytes_read(), static_cast<std::uint64_t>(kBricks) * 8u);
  fs::remove(packed);
}

TEST_F(BrickStreamerTest, EmptyScheduleIsImmediatelyDone) {
  BrickStreamer streamer(*reader_, {}, 2);
  EXPECT_TRUE(streamer.done());
  EXPECT_EQ(streamer.remaining(), 0u);
  EXPECT_EQ(streamer.reads(), 0u);
}

}  // namespace
}  // namespace vrmr::io
