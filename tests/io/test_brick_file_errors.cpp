// Recoverable I/O error paths: BrickFileReader::open / try_read_brick
// return IoError values instead of CHECK-aborting, and the reader stays
// usable after a failed read. A corrupt file is a servable condition
// for the farm (fall back to a peer or degrade), not a process abort.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/brick_file.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace vrmr::io {
namespace {

namespace fs = std::filesystem;

class BrickFileErrorTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vrmr_brickfile_err_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path path(const std::string& name) const { return dir_ / name; }

  /// Writes a healthy 2-brick file and returns its path.
  fs::path write_good(const std::string& name) {
    const Int3 dims{4, 4, 4};
    BrickFileWriter writer(path(name), Int3{8, 4, 4}, 4, 0, 2);
    writer.append_brick(Int3{0, 0, 0}, dims, payload(dims, 1));
    writer.append_brick(Int3{1, 0, 0}, dims, payload(dims, 2));
    writer.finalize();
    return path(name);
  }

  static std::vector<float> payload(Int3 dims, std::uint64_t seed) {
    std::vector<float> v(static_cast<size_t>(dims.volume()));
    Pcg32 rng(seed);
    for (auto& x : v) x = rng.next_float();
    return v;
  }

  fs::path dir_;
};

TEST_F(BrickFileErrorTest, OpenMissingFileReturnsOpenFailed) {
  const auto result = BrickFileReader::open(path("nope.vrbf"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, IoError::Code::OpenFailed);
  EXPECT_FALSE(result.error().message.empty());
}

TEST_F(BrickFileErrorTest, OpenRejectsBadMagic) {
  {
    std::ofstream out(path("junk.vrbf"), std::ios::binary);
    out << "this is not a VRBF file, not even close";
  }
  const auto result = BrickFileReader::open(path("junk.vrbf"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, IoError::Code::BadMagic);
}

TEST_F(BrickFileErrorTest, OpenRejectsTruncatedDirectory) {
  const fs::path good = write_good("whole.vrbf");
  // Keep the magic + a few header bytes, cut the directory short.
  std::vector<char> bytes(16);
  {
    std::ifstream in(good, std::ios::binary);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    std::ofstream out(path("cut.vrbf"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto result = BrickFileReader::open(path("cut.vrbf"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, IoError::Code::TruncatedDirectory);
}

TEST_F(BrickFileErrorTest, TryReadBrickSurvivesTruncatedPayload) {
  const fs::path good = write_good("trunc.vrbf");
  auto reader = BrickFileReader::open(good);
  ASSERT_TRUE(reader.has_value());
  // Chop the file mid-way through brick 1's payload. Brick 0 must keep
  // reading: a partial file loses bricks, not the whole dataset.
  const BrickRecord& last = reader->record(1);
  fs::resize_file(good, last.offset + last.bytes / 2);
  const auto bad = reader->try_read_brick(1);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, IoError::Code::TruncatedPayload);
  const auto still_good = reader->try_read_brick(0);
  ASSERT_TRUE(still_good.has_value());
  EXPECT_EQ(*still_good, payload(Int3{4, 4, 4}, 1));
  // The reader did not wedge: retrying the bad brick fails identically
  // instead of corrupting stream state.
  EXPECT_FALSE(reader->try_read_brick(1).has_value());
}

TEST_F(BrickFileErrorTest, TryReadBrickRejectsBadIndex) {
  auto reader = BrickFileReader::open(write_good("idx.vrbf"));
  ASSERT_TRUE(reader.has_value());
  const auto low = reader->try_read_brick(-1);
  ASSERT_FALSE(low.has_value());
  EXPECT_EQ(low.error().code, IoError::Code::BadIndex);
  const auto high = reader->try_read_brick(2);
  ASSERT_FALSE(high.has_value());
  EXPECT_EQ(high.error().code, IoError::Code::BadIndex);
}

}  // namespace
}  // namespace vrmr::io
