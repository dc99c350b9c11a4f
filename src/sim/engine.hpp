#pragma once

// Deterministic discrete-event simulation (DES) engine.
//
// Why a DES: the paper's evaluation ran on the 2010 NCSA Accelerator
// Cluster (Tesla S1070 GPUs, QDR InfiniBand). We reproduce the *system*
// functionally on the host, and reproduce the *timing behaviour* by
// charging calibrated costs for every GPU kernel, PCIe copy, network
// message and disk read onto a simulated clock. The engine is strictly
// single-threaded and events at equal times fire in scheduling order,
// so every experiment is bit-reproducible (PipelineDeterminism in
// tests/volren/test_pipeline_equivalence.cpp pins it).
//
// Heavy functional work (actually ray casting a brick) runs inside the
// event callbacks and may internally use the host thread pool; the
// simulated duration of the operation comes from the hardware model,
// never from the wall clock.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/check.hpp"

namespace vrmr::sim {

/// Simulated time in seconds.
using SimTime = double;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (must be >= now()).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` `dt` seconds after the current simulated time.
  void schedule_after(SimTime dt, std::function<void()> fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Process events until the queue drains. Returns the final time.
  SimTime run();

  /// Process a single event; false when the queue is empty.
  bool step();

  bool empty() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Reset the clock and drop pending events (for reuse across frames).
  void reset();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break for equal times => determinism
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

/// Countdown latch for the DES: fires `on_done` when `arrive()` has been
/// called `count` times. Used for "all mappers finished", "all fragments
/// routed" style phase joins.
class Join {
 public:
  Join(int count, std::function<void()> on_done)
      : remaining_(count), on_done_(std::move(on_done)) {
    VRMR_CHECK(count >= 0);
    if (remaining_ == 0 && on_done_) {
      auto fn = std::move(on_done_);
      on_done_ = nullptr;
      fn();
    }
  }

  void arrive() {
    VRMR_CHECK_MSG(remaining_ > 0, "Join::arrive called more times than count");
    if (--remaining_ == 0 && on_done_) {
      auto fn = std::move(on_done_);
      on_done_ = nullptr;
      fn();
    }
  }

  int remaining() const { return remaining_; }

 private:
  int remaining_;
  std::function<void()> on_done_;
};

}  // namespace vrmr::sim
