#pragma once

// Prefetching out-of-core brick reader.
//
// The paper's library "handles all I/O, thus allowing the user to focus
// on the computation" and supports out-of-core rendering by streaming
// bricks (§1). This component is the host-side half of that promise: it
// walks a VRBF file in a caller-supplied schedule, keeps a bounded
// window of bricks resident (prefetched ahead of consumption), and
// evicts in FIFO order — so a volume far larger than host memory
// streams through a fixed-size working set.
//
// Functional only (real file reads); the simulated *cost* of reads in
// experiments is charged by io::VirtualDisk inside the MapReduce
// runtime. Used by the out-of-core example and tests.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "io/brick_file.hpp"
#include "util/check.hpp"

namespace vrmr::io {

class BrickStreamer {
 public:
  /// Streams bricks of `reader` in `schedule` order, holding at most
  /// `window` bricks resident. The reader must outlive the streamer.
  BrickStreamer(BrickFileReader& reader, std::vector<int> schedule, int window = 2);

  /// Bricks remaining (incl. the current one).
  std::size_t remaining() const { return schedule_.size() - cursor_; }
  bool done() const { return cursor_ >= schedule_.size(); }

  /// Index (into the file) of the next brick the consumer will get.
  int next_brick() const {
    VRMR_CHECK_MSG(!done(), "stream exhausted");
    return schedule_[cursor_];
  }

  /// Take ownership of the next brick's voxels (loads + prefetches as
  /// needed). The brick leaves the resident window; a later repeat in
  /// the schedule re-reads it. A truncated/corrupt brick comes back as
  /// an IoError, the bad brick is retired from the schedule, and the
  /// stream continues past it — one bad brick never kills the stream.
  Expected<std::vector<float>, IoError> try_consume();

  /// Currently resident brick count (<= window).
  std::size_t resident() const { return cache_.size(); }
  /// Total bricks read from the file so far (each exactly once per
  /// scheduled appearance unless still cached).
  std::uint64_t reads() const { return reads_; }
  /// STORED bytes moved off disk — for compressed (VRBF v2) files this
  /// is the encoded stream size, smaller than the voxels delivered.
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  void fill_window();
  /// Reads `brick` into the window; returns the read failure, if any
  /// (the brick is simply not cached — nothing is evicted for it).
  std::optional<IoError> load(int brick);

  BrickFileReader& reader_;
  std::vector<int> schedule_;
  std::size_t cursor_ = 0;
  std::size_t prefetch_cursor_ = 0;  // schedule position of next load
  int window_;

  std::deque<int> residency_order_;           // FIFO eviction
  std::map<int, std::vector<float>> cache_;   // brick id -> voxels
  std::uint64_t reads_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace vrmr::io
