#pragma once

// On-disk bricked-volume file format ("VRBF").
//
// The paper bricks volumes offline and streams bricks to mappers;
// bricking time is excluded from its measurements (§5). This format is
// the offline artifact: a self-describing header, a brick directory
// (grid position, padded dims, codec, byte offset/size per brick), then
// per-brick payloads. Random access to any brick is a single directory
// lookup plus one contiguous read — which is what the out-of-core
// streamer exploits.
//
// Version 2 adds per-brick compression: the directory records a codec
// id and the logical (decompressed) payload size, and RLE-coded bricks
// store the real encoded stream — fewer disk bytes, bit-exact
// round-trip through try_read_brick(). The zfp-style codec is size-MODELED
// in the simulation only (a lossless file cannot actually shrink to the
// modeled rate), so the writer accepts None or Rle. The reader accepts
// v1 and v2 files; v1 records load as uncompressed.
//
// Layout (all integers little-endian):
//   u32 magic 'VRBF' (0x46425256)   u32 version (2)
//   u32 dims.x dims.y dims.z        u32 brick_size (core voxels/side)
//   u32 ghost                       u32 num_bricks
//   num_bricks × BrickRecord:
//     v1: { u32 grid.x,y,z; u32 dims.x,y,z; u64 offset; u64 bytes }
//     v2: { u32 grid.x,y,z; u32 dims.x,y,z; u32 codec; u32 reserved;
//           u64 offset; u64 bytes; u64 logical_bytes }
//   payload...

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/brick_codec.hpp"
#include "util/expected.hpp"
#include "util/vec.hpp"

namespace vrmr::io {

/// Recoverable I/O failure. A corrupt or truncated VRBF file is a
/// servable condition for the farm (fall back to a peer or degrade),
/// not a process abort — read paths return these instead of CHECKing.
struct IoError {
  enum class Code {
    OpenFailed,          // file missing or unreadable
    BadMagic,            // not a VRBF file
    BadVersion,          // VRBF version outside [1, kBrickFileVersion]
    TruncatedDirectory,  // header/directory cut short
    TruncatedPayload,    // brick payload cut short (truncated file)
    CorruptPayload,      // payload present but fails to decode
    BadIndex,            // brick index outside the directory
  };
  Code code = Code::OpenFailed;
  std::string message;
};

inline constexpr std::uint32_t kBrickFileMagic = 0x46425256u;  // "VRBF"
inline constexpr std::uint32_t kBrickFileVersion = 2;

struct BrickRecord {
  Int3 grid_pos;        // brick coordinates within the brick grid
  Int3 padded_dims;     // stored voxels incl. ghost shell (edge-clamped)
  /// Payload coding. Rle payloads hold the codec's encoded stream
  /// (which falls back to raw bytes internally when incompressible —
  /// decode handles both); None payloads hold raw little-endian floats.
  compress::Codec codec = compress::Codec::None;
  std::uint64_t offset = 0;  // absolute file offset of the payload
  std::uint64_t bytes = 0;   // STORED payload size (what one read costs)
  /// Decompressed size (padded_dims.volume()*4); == bytes for None.
  std::uint64_t logical_bytes = 0;
};

struct BrickFileHeader {
  Int3 volume_dims;
  int brick_size = 0;  // core voxels per side
  int ghost = 0;
  std::uint32_t version = kBrickFileVersion;  // as read from the file
  std::vector<BrickRecord> bricks;
};

/// Streams bricks into a VRBF file. Usage: construct, append_brick for
/// every brick (any order), finalize (writes the directory).
class BrickFileWriter {
 public:
  /// `codec` must be None or Rle (zfp-style sizes are modeled in-sim
  /// only; a lossless file cannot store them).
  BrickFileWriter(const std::filesystem::path& path, Int3 volume_dims, int brick_size,
                  int ghost, int num_bricks,
                  compress::Codec codec = compress::Codec::None);
  ~BrickFileWriter();

  BrickFileWriter(const BrickFileWriter&) = delete;
  BrickFileWriter& operator=(const BrickFileWriter&) = delete;

  void append_brick(Int3 grid_pos, Int3 padded_dims, const std::vector<float>& voxels);

  /// Rewrites the directory with final offsets and closes the file.
  void finalize();

 private:
  std::ofstream out_;
  BrickFileHeader header_;
  int expected_bricks_;
  compress::Codec codec_;
  std::unique_ptr<compress::BrickCodec> coder_;  // null for None
  bool finalized_ = false;
};

/// Random-access reader over a VRBF file (v1 or v2).
class BrickFileReader {
 public:
  /// Opens and parses the header + directory; a missing or malformed
  /// file comes back as an IoError.
  static Expected<BrickFileReader, IoError> open(const std::filesystem::path& path);

  BrickFileReader(BrickFileReader&&) = default;
  BrickFileReader& operator=(BrickFileReader&&) = default;

  const BrickFileHeader& header() const { return header_; }
  int num_bricks() const { return static_cast<int>(header_.bricks.size()); }

  /// Reads brick `index`'s voxel payload, decoding compressed bricks —
  /// always returns the logical voxels, bit-exact with what was
  /// appended. record(index).bytes is what the read itself moved. A
  /// bad index or a truncated or corrupt payload comes back as an
  /// IoError and the reader stays usable — other bricks still read.
  Expected<std::vector<float>, IoError> try_read_brick(int index);

  const BrickRecord& record(int index) const;

 private:
  BrickFileReader() = default;
  /// Parses the header + directory; returns the failure, if any.
  std::optional<IoError> init(const std::filesystem::path& path);

  std::ifstream in_;
  BrickFileHeader header_;
};

}  // namespace vrmr::io
