// Sharded parallel discrete-event engine (conservative PDES).
//
// The single-threaded Scheduler dispatches a global event queue in time
// order; a million-device SAP round schedules a few million events on
// one core. This engine partitions simulation endpoints ("entities" —
// for the protocol layers, tree positions) into contiguous shards, one
// classic Scheduler per shard, and runs the shards concurrently over a
// worker pool. Correctness rests on the classic conservative-lookahead
// argument (Chandy/Misra/Bryant):
//
//   every cross-shard interaction is a message with latency >= L
//   (the network's minimum link latency), so if no shard holds an
//   event earlier than T, no cross-shard event can arrive before
//   T + L — and every shard may safely execute its local events in
//   [T, T + L) without hearing from anyone.
//
// Execution proceeds in epochs. Each epoch has two phases separated by
// barriers: (A) every shard drains its inbound channel and reports the
// time of its earliest event; a reduction step folds these to the
// global minimum T and publishes the horizon T + L; (B) every shard
// runs run_before(horizon). Events posted across shards during (B) go
// through an explicit ShardChannel (sim/channel.hpp) — each directed
// (source, destination) lane has exactly one writer and one reader, and
// the phases alternate under barriers, so the lanes need no locks.
//
// Determinism: each shard is a deterministic Scheduler (FIFO among
// same-time events), channel lanes are drained in fixed source-shard
// order, and the horizon sequence depends only on event timestamps —
// so a run is a pure function of (inputs, shard count), independent of
// the number of worker threads. With one shard the engine *is* the
// classic Scheduler: run() forwards directly, so threads=1 reproduces
// the single-threaded event order bit-for-bit.
//
// Threading contract for post(): safe from any of THIS engine's shard
// workers while the engine runs, and from the driver thread while the
// engine is idle (round setup). Any other thread posting into a running
// engine throws std::logic_error — the old behavior silently
// schedule_at()'d into a live shard, a data race.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace cra::sim {

/// Execution knobs for the simulation engine, carried by protocol
/// configs (sap::SapConfig::sim, seda::SedaConfig::sim).
struct SimConfig {
  /// Worker threads. 1 = run on the calling thread (with shards=0 this
  /// is exactly the classic single-queue engine).
  std::uint32_t threads = 1;
  /// Shard count; 0 = one shard per thread. Results are a function of
  /// the shard count, not the thread count: fix `shards` and any
  /// `threads` value reproduces the same run (see docs/simulation.md).
  std::uint32_t shards = 0;

  std::uint32_t effective_shards() const noexcept {
    return shards != 0 ? shards : threads;
  }
  bool sharded() const noexcept { return effective_shards() > 1; }
};

/// A protocol message in flight between shards: deliver `payload` to
/// `entity` at absolute time `at`. src/kind are opaque to the engine
/// (the protocol layers put the network source node and message
/// discriminator there).
struct ShardMessage {
  SimTime at{};
  std::uint32_t entity = 0;
  std::uint32_t src = 0;
  std::uint32_t kind = 0;
  Bytes payload;
};

class ParallelScheduler {
 public:
  using Callback = Scheduler::Callback;
  /// Protocol delivery sink for messages posted with post_message(). It
  /// runs on the destination shard's worker at the message's time and
  /// receives the payload buffer intact (it moved, never copied).
  using MessageSink = std::function<void(ShardMessage&&)>;

  /// Partitions entities 0..entities-1 into contiguous blocks, one per
  /// shard. `lookahead` is the minimum cross-shard event latency and
  /// must be positive when more than one shard is configured.
  ParallelScheduler(std::uint32_t entities, SimConfig config,
                    Duration lookahead);
  ~ParallelScheduler();

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  std::uint32_t shard_count() const noexcept { return shard_count_; }
  std::uint32_t threads() const noexcept { return threads_; }
  Duration lookahead() const noexcept { return lookahead_; }

  std::uint32_t shard_of(std::uint32_t entity) const noexcept {
    const std::uint32_t s = entity / block_;
    return s < shard_count_ ? s : shard_count_ - 1;
  }
  Scheduler& shard(std::uint32_t s) noexcept { return shards_[s]->sched; }
  Scheduler& shard_for(std::uint32_t entity) noexcept {
    return shard(shard_of(entity));
  }

  /// Global clock: the maximum of the shard clocks. run()/run_until()
  /// synchronize every shard to this value on completion, so between
  /// runs all shards agree on the time.
  SimTime now() const noexcept;

  /// Schedule `cb` at absolute time `at` on `entity`'s shard.
  ///
  /// Contract: callable (a) from this engine's shard workers while the
  /// engine runs — same-shard posts schedule directly (preserving local
  /// FIFO order); cross-shard posts ride the channel and must respect
  /// the lookahead (`at` >= the current epoch horizon), which holds by
  /// construction for any message of latency >= lookahead — and (b)
  /// from any thread while the engine is idle (setup between runs).
  /// A foreign thread posting into a RUNNING engine throws
  /// std::logic_error instead of racing a live shard queue.
  void post(std::uint32_t entity, SimTime at, Callback cb);

  /// Schedule delivery of a protocol message to `entity`'s shard at
  /// `at`, through the sink installed with set_message_sink(). Same
  /// contract as post(); the protocol network routers use it so every
  /// delivery, same-shard or not, runs through one sink.
  void post_message(std::uint32_t entity, SimTime at, std::uint32_t src,
                    std::uint32_t kind, Bytes&& payload);

  /// Install the delivery sink post_message dispatches to. Call at
  /// setup, before any run with message traffic.
  void set_message_sink(MessageSink deliver);

  /// Run all shards to global quiescence; returns events dispatched.
  std::size_t run();

  /// Run events with time <= `until`; every shard clock advances to
  /// `until`. Uses the same worker pool as run() (the horizon sequence —
  /// and therefore the result — is identical to the serial epoch path),
  /// so drivers can slice a round at topology-rewire points without
  /// giving up parallelism.
  std::size_t run_until(SimTime until);

  /// Total events dispatched over the engine's lifetime.
  std::uint64_t dispatched() const noexcept;
  /// Barrier windows executed (observability: epochs × 2 barrier waits).
  std::uint64_t epochs() const noexcept { return epochs_; }
  /// Events that crossed a shard boundary through the channel.
  std::uint64_t cross_shard_posts() const noexcept;
  /// Lane-capacity growth events in the channel (0 steady-state for
  /// warm lanes — the recycling guarantee).
  std::uint64_t lane_reallocs() const noexcept {
    return channel_.lane_reallocs();
  }

  /// Write the engine's own counters (pdes.events_dispatched,
  /// pdes.cross_posts, pdes.lane_reallocs, pdes.epochs) into `reg`.
  /// Deliberately NOT folded into the per-shard registries: those merge
  /// into the protocol metrics view, which must stay engine-invariant
  /// (a serial run and a sharded run export identical registries) —
  /// benches export these into their own bench-level registry instead.
  void export_pdes_metrics(obs::MetricsRegistry& reg) const;

  /// --- Per-shard metrics (obs layer) ---
  /// Each shard carries its own MetricsRegistry, written only by the
  /// worker that owns the shard (same confinement as the shard's
  /// Scheduler), so instrument updates need no locks or atomics. The
  /// registries are reduced with merge_metrics_into() on the caller's
  /// thread once run() has returned — i.e. at the final barrier, when
  /// every worker is quiescent — always in ascending shard order, so
  /// the merged view is a deterministic function of the run itself, not
  /// of thread interleaving.
  obs::MetricsRegistry& shard_metrics(std::uint32_t s) noexcept {
    return shards_[s]->metrics;
  }
  const obs::MetricsRegistry& shard_metrics(std::uint32_t s) const noexcept {
    return shards_[s]->metrics;
  }
  /// Fold every shard registry into `out` in shard order (deterministic;
  /// see shard_metrics). Call only while the engine is idle.
  void merge_metrics_into(obs::MetricsRegistry& out) const;
  /// Zero every shard registry's instruments (round boundary).
  void reset_shard_metrics() noexcept;

 private:
  // Shards are heap-allocated and cacheline-aligned so that workers
  // hammering their own shard never share a line.
  struct alignas(64) Shard {
    Scheduler sched;
    std::optional<SimTime> next;     // written by owner in phase A
    std::size_t dispatched_run = 0;  // events run in the current run()
    std::uint64_t cross_posts = 0;   // channel posts originated here
    obs::MetricsRegistry metrics;    // written only by the owning worker
  };

  void sync_clocks();
  std::size_t run_serial_epochs(std::optional<SimTime> until);
  std::size_t run_threaded(std::optional<SimTime> until);

  std::uint32_t shard_count_;
  std::uint32_t threads_;
  std::uint32_t block_;
  Duration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardChannel channel_;
  MessageSink sink_;

  // Epoch state: written only while every worker is parked at a barrier
  // (completion step) or by the single thread of the serial path; the
  // barrier provides the happens-before for workers reading them.
  SimTime horizon_;
  bool done_ = false;
  std::atomic<bool> running_{false};
  std::uint64_t epochs_ = 0;
};

}  // namespace cra::sim
