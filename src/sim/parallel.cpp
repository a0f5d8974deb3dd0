#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace cra::sim {
namespace {

// Identifies the engine (and shard) the current thread is executing for,
// so post() can tell same-shard scheduling from cross-shard channel
// traffic. Thread-locals rather than members: workers of nested or
// concurrent engines must not observe each other.
thread_local const ParallelScheduler* tls_engine = nullptr;
thread_local std::uint32_t tls_shard = 0;

std::uint32_t shard_count_for(std::uint32_t entities,
                              const SimConfig& config) noexcept {
  return std::clamp<std::uint32_t>(config.effective_shards(), 1,
                                   std::max<std::uint32_t>(entities, 1));
}

}  // namespace

ParallelScheduler::ParallelScheduler(std::uint32_t entities, SimConfig config,
                                     Duration lookahead)
    : shard_count_(shard_count_for(entities, config)),
      threads_(std::clamp<std::uint32_t>(config.threads, 1, shard_count_)),
      block_((std::max<std::uint32_t>(entities, 1) + shard_count_ - 1) /
             shard_count_),
      lookahead_(lookahead),
      channel_(shard_count_) {
  if (shard_count_ > 1 && lookahead_ <= Duration::zero()) {
    throw std::invalid_argument(
        "ParallelScheduler: sharding requires positive lookahead");
  }
  shards_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ParallelScheduler::~ParallelScheduler() = default;

SimTime ParallelScheduler::now() const noexcept {
  SimTime t = SimTime::zero();
  for (const auto& s : shards_) {
    if (s->sched.now() > t) t = s->sched.now();
  }
  return t;
}

std::uint64_t ParallelScheduler::dispatched() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->sched.dispatched();
  return n;
}

std::uint64_t ParallelScheduler::cross_shard_posts() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->cross_posts;
  return n;
}

void ParallelScheduler::export_pdes_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("pdes.events_dispatched").inc(dispatched());
  reg.counter("pdes.cross_posts").inc(cross_shard_posts());
  reg.counter("pdes.lane_reallocs").inc(lane_reallocs());
  reg.counter("pdes.epochs").inc(epochs_);
}

void ParallelScheduler::merge_metrics_into(obs::MetricsRegistry& out) const {
  for (const auto& s : shards_) out.merge_from(s->metrics);
}

void ParallelScheduler::reset_shard_metrics() noexcept {
  for (auto& s : shards_) s->metrics.reset_values();
}

void ParallelScheduler::post(std::uint32_t entity, SimTime at, Callback cb) {
  const std::uint32_t to = shard_of(entity);
  if (tls_engine == this) {
    if (running_.load(std::memory_order_relaxed) && tls_shard != to) {
      if (at < horizon_) {
        throw std::logic_error(
            "ParallelScheduler: cross-shard event inside the lookahead "
            "window — source latency is below the configured lookahead");
      }
      channel_.post(tls_shard, to, at, std::move(cb));
      ++shards_[tls_shard]->cross_posts;
      return;
    }
    // Same shard during a run: schedule directly, preserving the
    // scheduler's local FIFO order.
    shard(to).schedule_at(at, std::move(cb));
    return;
  }
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "ParallelScheduler::post: called from a foreign thread while the "
        "engine is running — posting is setup-only outside the engine's "
        "own workers (see the contract in sim/parallel.hpp)");
  }
  // Engine idle (round setup): schedule directly.
  shard(to).schedule_at(at, std::move(cb));
}

void ParallelScheduler::post_message(std::uint32_t entity, SimTime at,
                                     std::uint32_t src, std::uint32_t kind,
                                     Bytes&& payload) {
  // The owned message rides as a closure: the payload buffer moves
  // through the channel lane and into the sink, never copied.
  post(entity, at,
       [this, sm = ShardMessage{at, entity, src, kind, std::move(payload)}]()
           mutable { sink_(std::move(sm)); });
}

void ParallelScheduler::set_message_sink(MessageSink deliver) {
  sink_ = std::move(deliver);
}

void ParallelScheduler::sync_clocks() {
  const SimTime target = now();
  for (auto& s : shards_) {
    if (s->sched.now() < target) s->sched.run_until(target);
  }
}

std::size_t ParallelScheduler::run() {
  if (shard_count_ == 1) return shards_[0]->sched.run();
  for (auto& s : shards_) s->dispatched_run = 0;
  const std::size_t n = threads_ > 1 ? run_threaded(std::nullopt)
                                     : run_serial_epochs(std::nullopt);
  sync_clocks();
  return n;
}

std::size_t ParallelScheduler::run_until(SimTime until) {
  if (shard_count_ == 1) return shards_[0]->sched.run_until(until);
  for (auto& s : shards_) s->dispatched_run = 0;
  const std::size_t n = threads_ > 1 ? run_threaded(until)
                                     : run_serial_epochs(until);
  for (auto& s : shards_) s->sched.run_until(until);
  return n;
}

std::size_t ParallelScheduler::run_serial_epochs(
    std::optional<SimTime> until) {
  running_.store(true, std::memory_order_release);
  tls_engine = this;
  // Reset the running flag and the thread-local even when a handler (or
  // a lookahead-violation check) throws out of the epoch loop.
  struct Cleanup {
    ParallelScheduler* self;
    ~Cleanup() {
      self->running_.store(false, std::memory_order_release);
      tls_engine = nullptr;
    }
  } cleanup{this};
  std::size_t n = 0;
  for (;;) {
    std::optional<SimTime> min_next;
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      tls_shard = s;
      channel_.drain(s, shards_[s]->sched);
      const auto next = shards_[s]->sched.peek_next_time();
      if (next && (!min_next || *next < *min_next)) min_next = next;
    }
    if (!min_next || (until && *min_next > *until)) break;
    horizon_ = *min_next + lookahead_;
    if (until && horizon_ > *until + Duration::from_ns(1)) {
      horizon_ = *until + Duration::from_ns(1);  // run_before is exclusive
    }
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      tls_shard = s;
      n += shards_[s]->sched.run_before(horizon_);
    }
    ++epochs_;
  }
  return n;
}

std::size_t ParallelScheduler::run_threaded(std::optional<SimTime> until) {
  running_.store(true, std::memory_order_release);
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr error;
  done_ = false;

  auto record_error = [&]() noexcept {
    const std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    abort.store(true, std::memory_order_relaxed);
  };

  // Completion step: runs on exactly one thread while every worker is
  // parked at a barrier, so it may read all shard `next` fields and
  // publish the epoch horizon without atomics. std::barrier invokes it
  // at BOTH the phase-A and phase-B barriers; only the phase-A
  // completion (when fresh `next` values were just published) computes.
  bool phase_a = true;
  auto completion = [this, &abort, &phase_a, until]() noexcept {
    if (!phase_a) {
      phase_a = true;
      return;
    }
    phase_a = false;
    std::optional<SimTime> min_next;
    for (const auto& s : shards_) {
      if (s->next && (!min_next || *s->next < *min_next)) min_next = s->next;
    }
    if (!min_next || (until && *min_next > *until) ||
        abort.load(std::memory_order_relaxed)) {
      done_ = true;
      return;
    }
    horizon_ = *min_next + lookahead_;
    if (until && horizon_ > *until + Duration::from_ns(1)) {
      horizon_ = *until + Duration::from_ns(1);  // run_before is exclusive
    }
    ++epochs_;
  };
  std::barrier sync(threads_, completion);

  auto worker_loop = [this, &sync, &abort, &record_error](std::uint32_t w) {
    tls_engine = this;
    for (;;) {
      // Phase A: drain the inbound channel, publish earliest local event.
      for (std::uint32_t s = w; s < shard_count_; s += threads_) {
        tls_shard = s;
        try {
          channel_.drain(s, shards_[s]->sched);
        } catch (...) {
          record_error();
        }
        shards_[s]->next = shards_[s]->sched.peek_next_time();
      }
      sync.arrive_and_wait();
      if (done_) break;
      // Phase B: execute one lookahead window on each owned shard.
      for (std::uint32_t s = w; s < shard_count_; s += threads_) {
        tls_shard = s;
        try {
          shards_[s]->dispatched_run += shards_[s]->sched.run_before(horizon_);
        } catch (...) {
          record_error();
        }
      }
      sync.arrive_and_wait();
    }
    tls_engine = nullptr;
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads_ - 1);
    for (std::uint32_t w = 1; w < threads_; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    worker_loop(0);
  }  // jthread joins here

  running_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->dispatched_run;
  return n;
}

}  // namespace cra::sim
