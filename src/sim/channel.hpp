// Shard-boundary channel for the parallel engine.
//
// Every cross-shard event in the sharded engine crosses this channel:
// one lane per directed (source, destination) shard pair, each holding
// the closures posted across that boundary during one epoch. Closures
// (and whatever buffers they own) move through the lane zero-copy.
//
// The epoch protocol guarantees exclusivity: post() is called only by
// the source shard's worker during phase B, drain() only by the
// destination shard's worker during phase A, with a barrier between
// them — so lanes need no locks. drain() visits source shards in
// ascending order and each lane FIFO, which is what keeps the merged
// event order (and therefore every digest) a pure function of
// (inputs, shard count), independent of the thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace cra::sim {

class ShardChannel {
 public:
  explicit ShardChannel(std::uint32_t shard_count);

  /// Queue `cb` at absolute time `at` from shard `from` to shard `to`.
  void post(std::uint32_t from, std::uint32_t to, SimTime at,
            Scheduler::Callback cb);

  /// Schedule everything queued for shard `to` into `into`, visiting
  /// source shards in ascending order, each FIFO.
  void drain(std::uint32_t to, Scheduler& into);

  /// Lane-capacity growth events since construction. Lane capacity is
  /// recycled across epochs — drain() clears contents but keeps the
  /// allocation — so this stops moving after the first heavy epoch.
  /// Exported as the pdes.lane_reallocs counter.
  std::uint64_t lane_reallocs() const noexcept;

 private:
  struct Posted {
    SimTime at;
    Scheduler::Callback cb;
  };
  // Heap-allocated and cacheline-aligned: a lane's single writer and
  // single reader run on different workers in alternating phases.
  struct alignas(64) Lane {
    std::vector<Posted> items;
    std::uint64_t reallocs = 0;
  };

  Lane& lane(std::uint32_t from, std::uint32_t to) noexcept {
    return *lanes_[static_cast<std::size_t>(from) * shard_count_ + to];
  }

  std::uint32_t shard_count_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace cra::sim
