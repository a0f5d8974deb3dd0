#include "sim/channel.hpp"

namespace cra::sim {

ShardChannel::ShardChannel(std::uint32_t shard_count)
    : shard_count_(shard_count) {
  const std::size_t n = static_cast<std::size_t>(shard_count) * shard_count;
  lanes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) lanes_.push_back(std::make_unique<Lane>());
}

void ShardChannel::post(std::uint32_t from, std::uint32_t to, SimTime at,
                        Scheduler::Callback cb) {
  Lane& l = lane(from, to);
  if (l.items.size() == l.items.capacity()) ++l.reallocs;
  l.items.push_back(Posted{at, std::move(cb)});
}

void ShardChannel::drain(std::uint32_t to, Scheduler& into) {
  for (std::uint32_t from = 0; from < shard_count_; ++from) {
    Lane& l = lane(from, to);
    for (Posted& p : l.items) into.schedule_at(p.at, std::move(p.cb));
    // clear() keeps capacity: next epoch's posts land in warm storage.
    l.items.clear();
  }
}

std::uint64_t ShardChannel::lane_reallocs() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->reallocs;
  return n;
}

}  // namespace cra::sim
