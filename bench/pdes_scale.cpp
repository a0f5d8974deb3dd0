// PDES scaling harness: one SAP swarm on the sharded engine.
//
// Runs identical SAP rounds at a chosen (shards, threads) point and
// prints a machine-checkable result line with a digest folded over
// every deterministic round output (timeline, byte ledgers,
// verification verdict, merged metrics JSON). The engine's correctness
// bar — a run is a pure function of (inputs, shard count) — means the
// digest must be byte-identical across worker threads (--threads
// 1/2/8) at a fixed --shards, and equal to the classic single-queue
// engine's (--shards 1).
//
// CI runs this at several thread counts and jq-asserts the digests
// agree. Wall-clock rates go to stderr; stdout carries only the stable
// result line.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_args.hpp"
#include "sap/report.hpp"
#include "sap/swarm.hpp"
#include "sim/parallel.hpp"

namespace {

// FNV-1a 64: tiny, dependency-free, and plenty to make "every field of
// every round plus the merged metrics JSON match" a one-number check.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fold_u64(std::uint64_t& h, std::uint64_t v) { fold_bytes(h, &v, 8); }

void fold_round(std::uint64_t& h, const cra::sap::RoundReport& r) {
  fold_u64(h, r.verified ? 1 : 0);
  fold_u64(h, r.chal_tick);
  fold_u64(h, static_cast<std::uint64_t>(r.t_chal.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.inbound_end.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.t_att.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.measurement_end.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.t_resp.ns()));
  fold_u64(h, r.u_ca_bytes);
  fold_u64(h, r.messages);
  fold_u64(h, r.dropped);
  fold_u64(h, r.responded);
  fold_u64(h, r.repolls);
  fold_u64(h, r.backoff_wait_ns);
}

constexpr const char* kUsage =
    "  --shards S          shard count (0 = one per thread)\n"
    "  --rounds R          SAP rounds to run (default 2)\n"
    "  --loss P            per-message loss probability (deterministic)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cra;

  std::uint32_t shards = 0;
  std::uint32_t rounds = 2;
  double loss = 0.0;

  const benchargs::BenchArgs args = benchargs::parse(
      argc, argv,
      [&](std::string_view flag,
          const std::function<const char*()>& value) -> bool {
        if (flag == "--shards") {
          shards = static_cast<std::uint32_t>(
              std::strtoul(value(), nullptr, 10));
        } else if (flag == "--rounds") {
          rounds = static_cast<std::uint32_t>(
              std::strtoul(value(), nullptr, 10));
          if (rounds == 0) rounds = 1;
        } else if (flag == "--loss") {
          loss = std::strtod(value(), nullptr);
        } else {
          return false;
        }
        return true;
      },
      kUsage);

  const std::uint32_t devices = args.devices != 0 ? args.devices : 10'000;

  sap::SapConfig cfg;
  cfg.sim.threads = args.threads;
  cfg.sim.shards = shards;

  auto swarm = sap::SapSimulation::balanced(cfg, devices);
  if (loss > 0.0) swarm.network().set_loss_rate(loss, /*seed=*/42);

  const sim::ParallelScheduler* eng = swarm.engine();
  std::uint64_t digest = kFnvOffset;
  bool all_verified = true;
  const benchargs::WallTimer wall;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const sap::RoundReport report = swarm.run_round();
    all_verified = all_verified && report.verified;
    fold_round(digest, report);
    const std::string metrics_json = swarm.metrics().to_json();
    fold_bytes(digest, metrics_json.data(), metrics_json.size());
    swarm.advance_time(sim::Duration::from_ms(250));
  }
  const double sec = wall.sec();

  const std::uint64_t events = eng != nullptr ? eng->dispatched() : 0;
  std::fprintf(stderr,
               "wall: devices=%u rounds=%u %.3fs (%.0f events/s)\n", devices,
               rounds, sec, sec > 0 ? static_cast<double>(events) / sec : 0.0);

  // The stable result line CI asserts on. One JSON object, stdout only.
  std::printf(
      "{\"devices\":%u,\"rounds\":%u,\"shards\":%u,\"threads\":%u,"
      "\"verified\":%s,\"digest\":\"%016" PRIx64 "\",\"events\":%" PRIu64
      ",\"cross_posts\":%" PRIu64 ",\"epochs\":%" PRIu64
      ",\"lane_reallocs\":%" PRIu64 "}\n",
      devices, rounds, eng != nullptr ? eng->shard_count() : 1,
      eng != nullptr ? eng->threads() : 1,
      all_verified ? "true" : "false", digest, events,
      eng != nullptr ? eng->cross_shard_posts() : 0,
      eng != nullptr ? eng->epochs() : 0,
      eng != nullptr ? eng->lane_reallocs() : 0);
  return all_verified ? 0 : 1;
}
