#include "sim/scheduler.hpp"

#include <stdexcept>

namespace cra::sim {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  if (at < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  const std::uint64_t seq = next_seq_++;
  live_.insert(seq);
  queue_.push(Event{at, seq, seq, std::move(cb)});
  return EventHandle(seq);
}

EventHandle Scheduler::schedule_after(Duration delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (live_.find(handle.id_) == live_.end()) return false;
  return cancelled_.insert(handle.id_).second;
}

bool Scheduler::dispatch_next() {
  while (!queue_.empty()) {
    // priority_queue::top() is const; the callback is moved out via a
    // const_cast that is safe because pop() immediately follows.
    Event& top = const_cast<Event&>(queue_.top());
    const SimTime at = top.at;
    const std::uint64_t id = top.id;
    Callback cb = std::move(top.cb);
    queue_.pop();
    live_.erase(id);
    if (cancelled_.erase(id) > 0) {
      continue;  // cancelled while pending
    }
    now_ = at;
    ++dispatched_;
    cb();
    return true;
  }
  return false;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (dispatch_next()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime until) {
  std::size_t n = 0;
  purge_cancelled();
  while (!queue_.empty() && queue_.top().at <= until) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  if (now_ < until) now_ = until;
  return n;
}

std::size_t Scheduler::run_before(SimTime limit) {
  std::size_t n = 0;
  purge_cancelled();
  while (!queue_.empty() && queue_.top().at < limit) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  return n;
}

std::optional<SimTime> Scheduler::peek_next_time() {
  purge_cancelled();
  if (queue_.empty()) return std::nullopt;
  return queue_.top().at;
}

void Scheduler::purge_cancelled() {
  while (!queue_.empty() && cancelled_.count(queue_.top().id) > 0) {
    const std::uint64_t id = queue_.top().id;
    queue_.pop();
    live_.erase(id);
    cancelled_.erase(id);
  }
}

bool Scheduler::step() { return dispatch_next(); }

}  // namespace cra::sim
