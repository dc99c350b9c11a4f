#include "io/brick_streamer.hpp"

namespace vrmr::io {

BrickStreamer::BrickStreamer(BrickFileReader& reader, std::vector<int> schedule,
                             int window)
    : reader_(reader), schedule_(std::move(schedule)), window_(window) {
  VRMR_CHECK_MSG(window >= 1, "window must be positive");
  for (int id : schedule_) {
    VRMR_CHECK_MSG(id >= 0 && id < reader_.num_bricks(),
                   "scheduled brick " << id << " not in file");
  }
  fill_window();
}

std::optional<IoError> BrickStreamer::load(int brick) {
  if (cache_.count(brick)) return std::nullopt;  // already resident (repeat)
  Expected<std::vector<float>, IoError> voxels = reader_.try_read_brick(brick);
  if (!voxels.has_value()) return std::move(voxels.error());
  // Evict only once the read succeeded — a failed read must not cost a
  // resident brick.
  if (static_cast<int>(cache_.size()) >= window_) {
    const int victim = residency_order_.front();
    residency_order_.pop_front();
    cache_.erase(victim);
  }
  ++reads_;
  // Stored bytes, not logical: a compressed (VRBF v2) brick costs one
  // read of its encoded stream, however large it decodes to.
  bytes_read_ += reader_.record(brick).bytes;
  residency_order_.push_back(brick);
  cache_.emplace(brick, std::move(voxels.value()));
  return std::nullopt;
}

void BrickStreamer::fill_window() {
  // Prefetch ahead of the consumer until the window is full or the
  // schedule ends. A brick that fails to read is simply not cached;
  // the consumer re-attempts it and surfaces the error at consume time.
  while (prefetch_cursor_ < schedule_.size() &&
         static_cast<int>(cache_.size()) < window_) {
    (void)load(schedule_[prefetch_cursor_]);
    ++prefetch_cursor_;
  }
}

Expected<std::vector<float>, IoError> BrickStreamer::try_consume() {
  VRMR_CHECK_MSG(!done(), "stream exhausted");
  const int brick = schedule_[cursor_];
  if (!cache_.count(brick)) {
    if (std::optional<IoError> err = load(brick)) {  // prefetch miss or bad brick
      // Corrupt brick: retire it from the schedule so the stream
      // continues past it — the caller decides how to substitute.
      ++cursor_;
      if (prefetch_cursor_ < cursor_) prefetch_cursor_ = cursor_;
      fill_window();
      return make_unexpected(std::move(*err));
    }
  }
  ++cursor_;
  if (prefetch_cursor_ < cursor_) prefetch_cursor_ = cursor_;

  // Hand the payload to the consumer and retire it from the window.
  auto it = cache_.find(brick);
  VRMR_CHECK(it != cache_.end());
  std::vector<float> voxels = std::move(it->second);
  cache_.erase(it);
  for (auto order = residency_order_.begin(); order != residency_order_.end(); ++order) {
    if (*order == brick) {
      residency_order_.erase(order);
      break;
    }
  }

  fill_window();
  return voxels;
}

}  // namespace vrmr::io
