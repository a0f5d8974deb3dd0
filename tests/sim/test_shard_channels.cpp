// The shard boundary: the ShardChannel's drain order and lane
// recycling, the engine's posting contract, and the acceptance gate for
// the sharded engine — round digests byte-identical across worker
// thread counts for a fixed shard count.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pads/pads.hpp"
#include "sap/swarm.hpp"
#include "sim/channel.hpp"
#include "sim/parallel.hpp"

namespace cra::sim {
namespace {

// ---------------------------------------------------------------------
// ShardChannel
// ---------------------------------------------------------------------

TEST(ShardChannel, DrainVisitsSourcesInOrderFifoWithinLane) {
  ShardChannel channel(3);
  std::vector<int> order;
  // Posted out of source order; every event at the same time, so the
  // destination scheduler's FIFO tie-break exposes the drain order.
  const SimTime at = SimTime::from_ms(1);
  channel.post(2, 1, at, [&] { order.push_back(20); });
  channel.post(0, 1, at, [&] { order.push_back(0); });
  channel.post(2, 1, at, [&] { order.push_back(21); });
  channel.post(0, 1, at, [&] { order.push_back(1); });
  channel.post(1, 0, at, [&] { order.push_back(-1); });  // other lane

  Scheduler dst;
  channel.drain(1, dst);
  dst.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 20, 21}));

  // Drained lanes are empty; the lane to shard 0 is untouched.
  Scheduler again;
  channel.drain(1, again);
  EXPECT_EQ(again.run(), 0u);
  Scheduler other;
  channel.drain(0, other);
  EXPECT_EQ(other.run(), 1u);
}

// ---------------------------------------------------------------------
// Engine contract hardening
// ---------------------------------------------------------------------

TEST(EngineContract, ForeignThreadPostThrowsOnlyWhileRunning) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  ParallelScheduler engine(4, cfg, Duration::from_ms(1));

  bool threw_while_running = false;
  engine.post(0, SimTime::from_ms(1), [&] {
    std::thread foreign([&] {
      try {
        engine.post(3, SimTime::from_ms(10), [] {});
      } catch (const std::logic_error&) {
        threw_while_running = true;
      }
    });
    foreign.join();
  });
  engine.run();
  EXPECT_TRUE(threw_while_running);

  // Idle engine: setup posts from any thread are the documented contract.
  bool ran = false;
  std::thread setup([&] {
    engine.post(3, engine.now() + Duration::from_ms(1), [&] { ran = true; });
  });
  setup.join();
  engine.run();
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------
// Thread-count digest equality (the acceptance gate)
// ---------------------------------------------------------------------

constexpr std::uint32_t kSapDevices = 10'000;
constexpr std::uint32_t kSapRounds = 2;

sap::SapConfig sap_config(std::uint32_t threads) {
  sap::SapConfig cfg;
  cfg.sim.threads = threads;
  cfg.sim.shards = 8;
  return cfg;
}

/// Everything deterministic about a SAP run, as one comparable string:
/// per-round timeline + verdict + the full merged metrics JSON.
std::string sap_fingerprint(sap::SapSimulation& swarm) {
  std::string fp;
  for (std::uint32_t r = 0; r < kSapRounds; ++r) {
    const sap::RoundReport rep = swarm.run_round();
    fp += std::to_string(rep.verified) + "/" +
          std::to_string(rep.chal_tick) + "/" +
          std::to_string(rep.t_chal.ns()) + "/" +
          std::to_string(rep.inbound_end.ns()) + "/" +
          std::to_string(rep.t_resp.ns()) + "/" +
          std::to_string(rep.u_ca_bytes) + "/" +
          std::to_string(rep.messages) + "/" +
          std::to_string(rep.responded) + "|";
    fp += swarm.metrics().to_json();
    swarm.advance_time(Duration::from_ms(250));
  }
  return fp;
}

TEST(ThreadMatrix, SapDigestIdenticalAcrossThreads) {
  auto ref_sim = sap::SapSimulation::balanced(sap_config(1), kSapDevices);
  const std::string ref = sap_fingerprint(ref_sim);
  for (const std::uint32_t threads : {2u, 8u}) {
    auto swarm = sap::SapSimulation::balanced(sap_config(threads), kSapDevices);
    EXPECT_EQ(sap_fingerprint(swarm), ref) << "threads=" << threads;
  }
}

TEST(ThreadMatrix, PadsDigestIdenticalAcrossThreads) {
  pads::PadsConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.gossip_epochs = 8;
  cfg.sim.shards = 4;
  cfg.sim.threads = 1;
  auto ref_sim = pads::PadsSimulation::balanced(cfg, 2'000, /*seed=*/42);
  const std::string ref = ref_sim.run_round().digest;
  for (const std::uint32_t threads : {2u, 8u}) {
    cfg.sim.threads = threads;
    auto swarm = pads::PadsSimulation::balanced(cfg, 2'000, /*seed=*/42);
    EXPECT_EQ(swarm.run_round().digest, ref) << "threads=" << threads;
  }
}

// Warm lanes stop reallocating — round 2 pushes the same traffic into
// recycled capacity.
TEST(LaneRecycling, WarmLanesStopReallocating) {
  auto swarm = sap::SapSimulation::balanced(sap_config(2), 2'000);
  (void)swarm.run_round();
  ASSERT_NE(swarm.engine(), nullptr);
  const std::uint64_t after_first = swarm.engine()->lane_reallocs();
  EXPECT_GT(swarm.engine()->cross_shard_posts(), 0u);
  swarm.advance_time(Duration::from_ms(250));
  (void)swarm.run_round();
  EXPECT_EQ(swarm.engine()->lane_reallocs(), after_first);
}

}  // namespace
}  // namespace cra::sim
