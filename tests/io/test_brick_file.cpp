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

class BrickFileTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("vrmr_brickfile_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path path(const std::string& name) const { return dir_ / name; }

  fs::path dir_;
};

/// Opens a file the test wrote itself; an IoError fails the test
/// (Expected::value() throws CheckError).
BrickFileReader open_reader(const fs::path& file) {
  return std::move(BrickFileReader::open(file).value());
}

std::vector<float> random_payload(Int3 dims, std::uint64_t seed) {
  std::vector<float> v(static_cast<size_t>(dims.volume()));
  Pcg32 rng(seed);
  for (auto& x : v) x = rng.next_float();
  return v;
}

TEST_F(BrickFileTest, RoundTripsHeaderAndPayloads) {
  const Int3 volume_dims{32, 32, 16};
  const Int3 brick_dims{18, 18, 18};  // padded 16+2 ghost
  std::vector<std::vector<float>> payloads;
  {
    BrickFileWriter writer(path("vol.vrbf"), volume_dims, 16, 1, 4);
    for (int i = 0; i < 4; ++i) {
      payloads.push_back(random_payload(brick_dims, 100 + i));
      writer.append_brick(Int3{i % 2, i / 2, 0}, brick_dims, payloads.back());
    }
    writer.finalize();
  }

  BrickFileReader reader = open_reader(path("vol.vrbf"));
  EXPECT_EQ(reader.header().volume_dims, volume_dims);
  EXPECT_EQ(reader.header().brick_size, 16);
  EXPECT_EQ(reader.header().ghost, 1);
  ASSERT_EQ(reader.num_bricks(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reader.record(i).grid_pos, (Int3{i % 2, i / 2, 0}));
    EXPECT_EQ(reader.record(i).padded_dims, brick_dims);
    EXPECT_EQ(reader.try_read_brick(i).value(), payloads[static_cast<size_t>(i)]);
  }
}

TEST_F(BrickFileTest, RandomAccessOrderIndependent) {
  const Int3 dims{4, 4, 4};
  {
    BrickFileWriter writer(path("ra.vrbf"), Int3{8, 4, 4}, 4, 0, 2);
    writer.append_brick(Int3{0, 0, 0}, dims, random_payload(dims, 1));
    writer.append_brick(Int3{1, 0, 0}, dims, random_payload(dims, 2));
    writer.finalize();
  }
  BrickFileReader reader = open_reader(path("ra.vrbf"));
  // Read out of order, repeatedly.
  const auto second = reader.try_read_brick(1).value();
  const auto first = reader.try_read_brick(0).value();
  EXPECT_EQ(first, random_payload(dims, 1));
  EXPECT_EQ(second, random_payload(dims, 2));
  EXPECT_EQ(reader.try_read_brick(1).value(), second);
}

TEST_F(BrickFileTest, WriterValidatesPayloadSize) {
  BrickFileWriter writer(path("bad.vrbf"), Int3{8, 8, 8}, 8, 0, 1);
  std::vector<float> wrong(10);
  EXPECT_THROW(writer.append_brick(Int3{0, 0, 0}, Int3{8, 8, 8}, wrong),
               vrmr::CheckError);
  writer.append_brick(Int3{0, 0, 0}, Int3{8, 8, 8}, random_payload(Int3{8, 8, 8}, 7));
  writer.finalize();
}

TEST_F(BrickFileTest, WriterRejectsExtraBricks) {
  BrickFileWriter writer(path("extra.vrbf"), Int3{4, 4, 4}, 4, 0, 1);
  writer.append_brick(Int3{0, 0, 0}, Int3{4, 4, 4}, random_payload(Int3{4, 4, 4}, 1));
  EXPECT_THROW(
      writer.append_brick(Int3{1, 0, 0}, Int3{4, 4, 4}, random_payload(Int3{4, 4, 4}, 2)),
      vrmr::CheckError);
}

TEST_F(BrickFileTest, FinalizeRequiresAllBricks) {
  BrickFileWriter writer(path("short.vrbf"), Int3{8, 4, 4}, 4, 0, 2);
  writer.append_brick(Int3{0, 0, 0}, Int3{4, 4, 4}, random_payload(Int3{4, 4, 4}, 1));
  EXPECT_THROW(writer.finalize(), vrmr::CheckError);
}

TEST_F(BrickFileTest, ReaderRejectsBadMagic) {
  {
    std::ofstream out(path("junk.vrbf"), std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    out.write(reinterpret_cast<const char*>(&junk), 4);
    std::vector<char> zeros(64, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  const auto reader = BrickFileReader::open(path("junk.vrbf"));
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.error().code, IoError::Code::BadMagic);
}

TEST_F(BrickFileTest, ReaderRejectsMissingFile) {
  const auto reader = BrickFileReader::open(path("nonexistent.vrbf"));
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.error().code, IoError::Code::OpenFailed);
}

TEST_F(BrickFileTest, ReaderRejectsOutOfRangeBrickIndex) {
  {
    BrickFileWriter writer(path("one.vrbf"), Int3{4, 4, 4}, 4, 0, 1);
    writer.append_brick(Int3{0, 0, 0}, Int3{4, 4, 4}, random_payload(Int3{4, 4, 4}, 3));
    writer.finalize();
  }
  BrickFileReader reader = open_reader(path("one.vrbf"));
  const auto past_end = reader.try_read_brick(1);
  ASSERT_FALSE(past_end.has_value());
  EXPECT_EQ(past_end.error().code, IoError::Code::BadIndex);
  EXPECT_THROW((void)reader.record(-1), vrmr::CheckError);
}

TEST_F(BrickFileTest, NonUniformPaddedDimsSupported) {
  // Edge bricks have smaller padded dims; the directory must carry them.
  {
    BrickFileWriter writer(path("edge.vrbf"), Int3{10, 4, 4}, 8, 1, 2);
    writer.append_brick(Int3{0, 0, 0}, Int3{9, 4, 4}, random_payload(Int3{9, 4, 4}, 1));
    writer.append_brick(Int3{1, 0, 0}, Int3{3, 4, 4}, random_payload(Int3{3, 4, 4}, 2));
    writer.finalize();
  }
  BrickFileReader reader = open_reader(path("edge.vrbf"));
  EXPECT_EQ(reader.record(0).padded_dims, (Int3{9, 4, 4}));
  EXPECT_EQ(reader.record(1).padded_dims, (Int3{3, 4, 4}));
  EXPECT_EQ(reader.try_read_brick(1).value().size(), 3u * 4 * 4);
}

TEST_F(BrickFileTest, RleFileStoresFewerBytesAndRoundTripsExactly) {
  // v2 compressed file: a uniform brick shrinks on disk, an
  // incompressible one falls back to raw inside the codec's framing —
  // and both read back exactly, with record(i).bytes telling what the
  // read itself moved.
  const Int3 dims{8, 8, 8};
  const std::vector<float> uniform(static_cast<size_t>(dims.volume()), 0.5f);
  const std::vector<float> noisy = random_payload(dims, 42);
  {
    BrickFileWriter writer(path("rle.vrbf"), Int3{16, 8, 8}, 8, 0, 2,
                           compress::Codec::Rle);
    writer.append_brick(Int3{0, 0, 0}, dims, uniform);
    writer.append_brick(Int3{1, 0, 0}, dims, noisy);
    writer.finalize();
  }
  BrickFileReader reader = open_reader(path("rle.vrbf"));
  EXPECT_EQ(reader.header().version, 2u);
  const std::uint64_t logical = uniform.size() * sizeof(float);
  EXPECT_EQ(reader.record(0).codec, compress::Codec::Rle);
  EXPECT_EQ(reader.record(0).logical_bytes, logical);
  EXPECT_EQ(reader.record(0).bytes, 8u);  // one (count, value) pair
  EXPECT_EQ(reader.record(1).bytes, logical);  // raw fallback
  EXPECT_EQ(reader.try_read_brick(0).value(), uniform);
  EXPECT_EQ(reader.try_read_brick(1).value(), noisy);
}

TEST_F(BrickFileTest, WriterRejectsModeledOnlyCodec) {
  // zfp-style sizes are simulation models; a lossless file cannot
  // store them, so the writer refuses up front.
  EXPECT_THROW(BrickFileWriter(path("zfp.vrbf"), Int3{4, 4, 4}, 4, 0, 1,
                               compress::Codec::ZfpStyle),
               vrmr::CheckError);
}

TEST_F(BrickFileTest, ReaderStillLoadsVersion1Files) {
  // Hand-written v1 file (40-byte records, no codec/logical fields):
  // the reader must load it with codec None and logical == stored.
  const Int3 dims{4, 4, 4};
  const std::vector<float> payload = random_payload(dims, 9);
  {
    std::ofstream out(path("v1.vrbf"), std::ios::binary);
    auto u32 = [&out](std::uint32_t v) {
      out.write(reinterpret_cast<const char*>(&v), 4);
    };
    auto u64 = [&out](std::uint64_t v) {
      out.write(reinterpret_cast<const char*>(&v), 8);
    };
    u32(kBrickFileMagic);
    u32(1);  // version
    u32(4); u32(4); u32(4);  // volume dims
    u32(4);  // brick_size
    u32(0);  // ghost
    u32(1);  // num_bricks
    const std::uint64_t header_and_dir = 8 * 4 + (6 * 4 + 2 * 8);
    u32(0); u32(0); u32(0);  // grid_pos
    u32(4); u32(4); u32(4);  // padded_dims
    u64(header_and_dir);     // offset
    u64(payload.size() * sizeof(float));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size() * sizeof(float)));
  }
  BrickFileReader reader = open_reader(path("v1.vrbf"));
  EXPECT_EQ(reader.header().version, 1u);
  ASSERT_EQ(reader.num_bricks(), 1);
  EXPECT_EQ(reader.record(0).codec, compress::Codec::None);
  EXPECT_EQ(reader.record(0).logical_bytes, reader.record(0).bytes);
  EXPECT_EQ(reader.try_read_brick(0).value(), payload);
}

}  // namespace
}  // namespace vrmr::io
