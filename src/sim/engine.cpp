#include "sim/engine.hpp"

namespace vrmr::sim {

void Engine::schedule_at(SimTime t, std::function<void()> fn) {
  VRMR_CHECK_MSG(t >= now_, "cannot schedule event in the simulated past (t="
                                << t << ", now=" << now_ << ")");
  VRMR_CHECK(fn != nullptr);
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

bool Engine::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the function object must be moved
  // out before pop. const_cast is confined to this one spot.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++processed_;
  ev.fn();
  return true;
}

SimTime Engine::run() {
  while (step()) {
  }
  return now_;
}

void Engine::reset() {
  while (!queue_.empty()) queue_.pop();
  now_ = 0.0;
  next_seq_ = 0;
  processed_ = 0;
}

}  // namespace vrmr::sim
