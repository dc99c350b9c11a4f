#include "io/brick_file.hpp"

#include <cstring>

#include "util/check.hpp"

namespace vrmr::io {

namespace {

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

void write_record(std::ofstream& out, const BrickRecord& r) {
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.grid_pos.x));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.grid_pos.y));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.grid_pos.z));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.padded_dims.x));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.padded_dims.y));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.padded_dims.z));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.codec));
  write_pod<std::uint32_t>(out, 0u);  // reserved
  write_pod<std::uint64_t>(out, r.offset);
  write_pod<std::uint64_t>(out, r.bytes);
  write_pod<std::uint64_t>(out, r.logical_bytes);
}

BrickRecord read_record(std::ifstream& in, std::uint32_t version,
                        std::uint32_t* bad_codec) {
  BrickRecord r;
  r.grid_pos.x = static_cast<int>(read_pod<std::uint32_t>(in));
  r.grid_pos.y = static_cast<int>(read_pod<std::uint32_t>(in));
  r.grid_pos.z = static_cast<int>(read_pod<std::uint32_t>(in));
  r.padded_dims.x = static_cast<int>(read_pod<std::uint32_t>(in));
  r.padded_dims.y = static_cast<int>(read_pod<std::uint32_t>(in));
  r.padded_dims.z = static_cast<int>(read_pod<std::uint32_t>(in));
  if (version >= 2) {
    const auto codec = read_pod<std::uint32_t>(in);
    if (codec > static_cast<std::uint32_t>(compress::Codec::ZfpStyle)) {
      *bad_codec = codec;
    } else {
      r.codec = static_cast<compress::Codec>(codec);
    }
    (void)read_pod<std::uint32_t>(in);  // reserved
  }
  r.offset = read_pod<std::uint64_t>(in);
  r.bytes = read_pod<std::uint64_t>(in);
  r.logical_bytes = version >= 2 ? read_pod<std::uint64_t>(in) : r.bytes;
  return r;
}

std::uint64_t record_bytes(std::uint32_t version) {
  // v1: 6 u32 + 2 u64. v2 adds codec + reserved u32 and logical u64.
  return version >= 2 ? 8 * 4 + 3 * 8 : 6 * 4 + 2 * 8;
}

std::uint64_t directory_bytes(int num_bricks, std::uint32_t version) {
  return static_cast<std::uint64_t>(num_bricks) * record_bytes(version);
}

constexpr std::uint64_t kFixedHeaderBytes = 4u * 8;  // 8 u32 fields

}  // namespace

BrickFileWriter::BrickFileWriter(const std::filesystem::path& path, Int3 volume_dims,
                                 int brick_size, int ghost, int num_bricks,
                                 compress::Codec codec)
    : out_(path, std::ios::binary | std::ios::trunc),
      expected_bricks_(num_bricks),
      codec_(codec),
      coder_(compress::make_codec(codec)) {
  VRMR_CHECK_MSG(out_.good(), "cannot open " << path << " for writing");
  VRMR_CHECK(volume_dims.x > 0 && volume_dims.y > 0 && volume_dims.z > 0);
  VRMR_CHECK(brick_size > 0 && ghost >= 0 && num_bricks > 0);
  VRMR_CHECK_MSG(codec != compress::Codec::ZfpStyle,
                 "zfp-style sizes are modeled in-sim only; VRBF stores None or Rle");
  header_.volume_dims = volume_dims;
  header_.brick_size = brick_size;
  header_.ghost = ghost;

  // Reserve header + directory space; rewritten by finalize().
  write_pod<std::uint32_t>(out_, kBrickFileMagic);
  write_pod<std::uint32_t>(out_, kBrickFileVersion);
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(volume_dims.x));
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(volume_dims.y));
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(volume_dims.z));
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(brick_size));
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(ghost));
  write_pod<std::uint32_t>(out_, static_cast<std::uint32_t>(num_bricks));
  const std::vector<char> zeros(directory_bytes(num_bricks, kBrickFileVersion), 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
}

BrickFileWriter::~BrickFileWriter() {
  if (!finalized_ && out_.is_open()) {
    // Best effort: leave a valid file even if the caller forgot.
    try {
      finalize();
    } catch (...) {
      // Destructor must not throw.
    }
  }
}

void BrickFileWriter::append_brick(Int3 grid_pos, Int3 padded_dims,
                                   const std::vector<float>& voxels) {
  VRMR_CHECK_MSG(!finalized_, "append after finalize");
  VRMR_CHECK_MSG(static_cast<std::int64_t>(voxels.size()) == padded_dims.volume(),
                 "payload " << voxels.size() << " voxels != dims " << padded_dims);
  VRMR_CHECK_MSG(static_cast<int>(header_.bricks.size()) < expected_bricks_,
                 "more bricks than declared (" << expected_bricks_ << ")");
  BrickRecord rec;
  rec.grid_pos = grid_pos;
  rec.padded_dims = padded_dims;
  rec.codec = codec_;
  rec.offset = static_cast<std::uint64_t>(out_.tellp());
  rec.logical_bytes = voxels.size() * sizeof(float);
  if (coder_ != nullptr) {
    // Real encoded stream on disk (raw fallback lives inside the
    // codec's framing, so decode needs no per-brick flag).
    const std::vector<std::uint8_t> stream = coder_->encode(voxels);
    rec.bytes = stream.size();
    out_.write(reinterpret_cast<const char*>(stream.data()),
               static_cast<std::streamsize>(stream.size()));
  } else {
    rec.bytes = rec.logical_bytes;
    out_.write(reinterpret_cast<const char*>(voxels.data()),
               static_cast<std::streamsize>(rec.bytes));
  }
  VRMR_CHECK_MSG(out_.good(), "short write");
  header_.bricks.push_back(rec);
}

void BrickFileWriter::finalize() {
  VRMR_CHECK_MSG(!finalized_, "finalize called twice");
  VRMR_CHECK_MSG(static_cast<int>(header_.bricks.size()) == expected_bricks_,
                 "wrote " << header_.bricks.size() << " of " << expected_bricks_
                          << " declared bricks");
  out_.seekp(static_cast<std::streamoff>(kFixedHeaderBytes));
  for (const auto& rec : header_.bricks) write_record(out_, rec);
  VRMR_CHECK_MSG(out_.good(), "directory rewrite failed");
  out_.close();
  finalized_ = true;
}

Expected<BrickFileReader, IoError> BrickFileReader::open(
    const std::filesystem::path& path) {
  BrickFileReader reader;
  if (std::optional<IoError> err = reader.init(path)) {
    return make_unexpected(std::move(*err));
  }
  return reader;
}

std::optional<IoError> BrickFileReader::init(const std::filesystem::path& path) {
  in_.open(path, std::ios::binary);
  if (!in_.good()) {
    return IoError{IoError::Code::OpenFailed, "cannot open " + path.string()};
  }
  const auto magic = read_pod<std::uint32_t>(in_);
  if (!in_.good() || magic != kBrickFileMagic) {
    return IoError{IoError::Code::BadMagic,
                   "bad magic in " + path.string() + " (not a VRBF file)"};
  }
  const auto version = read_pod<std::uint32_t>(in_);
  if (!in_.good() || version < 1 || version > kBrickFileVersion) {
    return IoError{IoError::Code::BadVersion,
                   "unsupported VRBF version " + std::to_string(version)};
  }
  header_.version = version;
  header_.volume_dims.x = static_cast<int>(read_pod<std::uint32_t>(in_));
  header_.volume_dims.y = static_cast<int>(read_pod<std::uint32_t>(in_));
  header_.volume_dims.z = static_cast<int>(read_pod<std::uint32_t>(in_));
  header_.brick_size = static_cast<int>(read_pod<std::uint32_t>(in_));
  header_.ghost = static_cast<int>(read_pod<std::uint32_t>(in_));
  const auto count = read_pod<std::uint32_t>(in_);
  if (!in_.good()) {
    return IoError{IoError::Code::TruncatedDirectory,
                   "truncated header in " + path.string()};
  }
  header_.bricks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t bad_codec = 0;
    header_.bricks.push_back(read_record(in_, version, &bad_codec));
    if (bad_codec != 0) {
      return IoError{IoError::Code::CorruptPayload,
                     "unknown codec id " + std::to_string(bad_codec) +
                         " in directory of " + path.string()};
    }
  }
  if (!in_.good()) {
    return IoError{IoError::Code::TruncatedDirectory,
                   "truncated directory in " + path.string()};
  }
  return std::nullopt;
}

const BrickRecord& BrickFileReader::record(int index) const {
  VRMR_CHECK_MSG(index >= 0 && index < num_bricks(), "brick index " << index
                                                                    << " out of range");
  return header_.bricks[static_cast<size_t>(index)];
}

Expected<std::vector<float>, IoError> BrickFileReader::try_read_brick(int index) {
  if (index < 0 || index >= num_bricks()) {
    return make_unexpected(IoError{
        IoError::Code::BadIndex,
        "brick index " + std::to_string(index) + " out of range"});
  }
  const BrickRecord& rec = header_.bricks[static_cast<size_t>(index)];
  // A prior failed read leaves the stream in a fail state; clear it so
  // one truncated brick does not poison reads of the intact ones.
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(rec.offset));
  if (rec.codec == compress::Codec::None) {
    std::vector<float> voxels(rec.bytes / sizeof(float));
    in_.read(reinterpret_cast<char*>(voxels.data()),
             static_cast<std::streamsize>(rec.bytes));
    if (!in_.good()) {
      in_.clear();
      return make_unexpected(IoError{
          IoError::Code::TruncatedPayload,
          "short read for brick " + std::to_string(index)});
    }
    return voxels;
  }
  std::vector<std::uint8_t> stream(rec.bytes);
  in_.read(reinterpret_cast<char*>(stream.data()),
           static_cast<std::streamsize>(rec.bytes));
  if (!in_.good()) {
    in_.clear();
    return make_unexpected(IoError{
        IoError::Code::TruncatedPayload,
        "short read for brick " + std::to_string(index)});
  }
  const std::unique_ptr<compress::BrickCodec> coder = compress::make_codec(rec.codec);
  if (coder == nullptr) {
    return make_unexpected(IoError{
        IoError::Code::CorruptPayload,
        "no codec for brick " + std::to_string(index)});
  }
  try {
    return coder->decode(stream, rec.logical_bytes / sizeof(float));
  } catch (const CheckError& e) {
    return make_unexpected(IoError{
        IoError::Code::CorruptPayload,
        "brick " + std::to_string(index) + " failed to decode: " + e.what()});
  }
}

}  // namespace vrmr::io
