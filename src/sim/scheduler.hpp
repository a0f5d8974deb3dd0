// Discrete-event simulation core.
//
// A single-threaded event scheduler: events are (time, callback) pairs
// executed in non-decreasing time order, FIFO among ties (a strictly
// increasing sequence number breaks them), which makes every run
// deterministic. Protocol agents (sap/, seda/) and the network layer
// (net/) are written against this interface; a million-device SAP round
// schedules a few million events, so both scheduling and dispatch are
// allocation-lean.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cra::sim {

/// Handle for cancelling a scheduled event. Default-constructed handles
/// are inert.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const noexcept { return id_ != 0; }

 private:
  friend class Scheduler;
  explicit EventHandle(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_ = 0;
};

class Scheduler {
 public:
  // Small-buffer-optimized: the typical event capture (a network
  // message) stays inline; see sim/callback.hpp.
  using Callback = InlineCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (time of the event being dispatched, or the
  /// last dispatched event once run() returns).
  SimTime now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `at`; throws std::invalid_argument if
  /// `at` is in the simulated past.
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` `delay` after now().
  EventHandle schedule_after(Duration delay, Callback cb);

  /// Cancel a pending event; returns false if it already ran, was already
  /// cancelled, or the handle is inert.
  bool cancel(EventHandle handle);

  /// Run events until the queue is empty. Returns the number dispatched.
  std::size_t run();

  /// Run events with time <= `until` (events after it stay queued; now()
  /// advances to `until`). Returns the number dispatched.
  std::size_t run_until(SimTime until);

  /// Run events with time strictly < `limit`. Unlike run_until(), now()
  /// is NOT dragged to the horizon — it stays at the last dispatched
  /// event — so a later event may still be scheduled anywhere in
  /// [now(), limit). This is the epoch step of the conservative parallel
  /// engine (see sim/parallel.hpp): each shard executes one lookahead
  /// window, and cross-shard messages land exactly at the horizon.
  std::size_t run_before(SimTime limit);

  /// Time of the earliest live (non-cancelled) event, or nullopt when
  /// the queue is empty. Purges cancelled head events as a side effect.
  std::optional<SimTime> peek_next_time();

  /// Dispatch exactly one event if available; returns false on empty.
  bool step();

  /// Number of events that would still dispatch (live minus pending
  /// cancellations). Counted from the live-id set, not the raw queue, so
  /// the result can never underflow even if a cancelled event has been
  /// purged from the queue while its id lingers in cancelled_.
  std::size_t pending() const noexcept {
    std::size_t cancelled_live = 0;
    for (const std::uint64_t id : cancelled_) {
      cancelled_live += live_.count(id);
    }
    return live_.size() - cancelled_live;
  }

  /// Total events dispatched over the scheduler's lifetime.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool dispatch_next();
  void purge_cancelled();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;  // pending-but-cancelled ids
  std::unordered_set<std::uint64_t> live_;       // ids still in the queue
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace cra::sim
