#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "crypto/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "sap/swarm.hpp"
#include "seda/seda.hpp"
#include "wire/agent.hpp"
#include "wire/daemon.hpp"

namespace perfbench {
namespace {

using namespace cra;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Layer counters that a workload does not exercise read 0.
void zero_layers(Outcome& out, std::initializer_list<const char*> names) {
  for (const char* n : names) out.layer(n, 0.0, "count");
}

/// The sharded engine's work counters (cumulative since construction).
struct PdesCounters {
  double events = 0, cross_posts = 0, epochs = 0, lane_reallocs = 0;
};

template <typename Sim>
PdesCounters pdes_counters(const Sim& sim) {
  PdesCounters c;
  if (sim.engine() == nullptr) return c;
  obs::MetricsRegistry reg;
  sim.engine()->export_pdes_metrics(reg);
  c.events = static_cast<double>(reg.counter_value("pdes.events_dispatched"));
  c.cross_posts = static_cast<double>(reg.counter_value("pdes.cross_posts"));
  c.epochs = static_cast<double>(reg.counter_value("pdes.epochs"));
  c.lane_reallocs = static_cast<double>(reg.counter_value("pdes.lane_reallocs"));
  return c;
}

/// Runs `round()` (which returns its wall seconds) until at least
/// min_reps rounds ran and either `seconds` elapsed or max_reps ran.
/// Lists each round's time on stderr.
template <typename F>
std::vector<double> measure_rounds(const RunOptions& opt, F&& round) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (walls.size() < opt.min_reps ||
         (since(t0) < opt.seconds && walls.size() < opt.max_reps)) {
    walls.push_back(round());
  }
  std::fprintf(stderr, "%s: %zu measured rounds (s):", opt.workload.c_str(),
               walls.size());
  for (double w : walls) std::fprintf(stderr, " %.4f", w);
  std::fprintf(stderr, "\n");
  return walls;
}

/// Layer metrics shared by both simulations: the warm-round counters of
/// sim and net, per round.
template <typename Sim>
void sim_layers(Outcome& out, const Sim& sim, const PdesCounters& before,
                const PdesCounters& after, std::size_t warm_rounds,
                double warm_s, double dropped) {
  const double r = static_cast<double>(warm_rounds);
  const double events = (after.events - before.events) / r;
  out.layer("sim.events_per_round", events, "count");
  out.layer("sim.cross_posts_per_round", (after.cross_posts - before.cross_posts) / r,
            "count");
  out.layer("sim.epochs_per_round", (after.epochs - before.epochs) / r, "count");
  out.layer("sim.lane_reallocs", after.lane_reallocs, "count");
  out.layer("sim.host_ns_per_event", events > 0 ? warm_s * 1e9 / events : 0.0,
            "ns");
  const obs::MetricsRegistry& m = sim.metrics();  // the last round
  out.layer("net.messages_per_round",
            static_cast<double>(m.counter_value("net.messages_sent")), "count");
  out.layer("net.bytes_per_round",
            static_cast<double>(m.counter_value("net.bytes_transmitted")), "count");
  out.layer("net.messages_dropped", dropped, "count");
  zero_layers(out, {"wire.rx_datagrams_per_round", "wire.repolls",
                    "wire.stale_tokens", "wire.rounds_overrun_per_round"});
}

/// End-to-end metrics and the generic per-device layer ratios.
/// setup_s runs from the process's start to the first verdict: building
/// the swarm, SEDA's join or the wire's registration, and the first
/// (cold) round. Work moved between those steps leaves it unchanged;
/// work moved out of the steady-state rounds into any of them shows.
/// cold_s is the first round (for the wire: the whole one-round session,
/// registration included).
void common_metrics(Outcome& out, std::uint32_t devices, double first_verdict_s,
                    double construct_s, double cold_s, double round_s) {
  out.e2e("setup_s", first_verdict_s, "s");
  out.e2e("rounds_per_s", round_s > 0 ? 1.0 / round_s : 0.0, "1/s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.layer("construct_us_per_device", construct_s * 1e6 / devices, "us");
  out.layer("round_us_per_device", round_s * 1e6 / devices, "us");
  out.layer("cold_round_s", cold_s, "s");
  out.layer("cold_minus_warm_s", cold_s - round_s, "s");
}

// --- sap-1m -----------------------------------------------------------

Outcome run_sap(const RunOptions& opt, Clock::time_point start,
                CryptoShape& shape) {
  Outcome out;
  const std::uint32_t n = opt.devices != 0 ? opt.devices : 1'000'000;
  sap::SapConfig cfg;  // paper defaults: binary QoA, binary tree, 250 kbit/s
  cfg.sim.threads = opt.threads;
  shape = CryptoShape{cfg.token_size(), "sap-device-key", cfg.pmem_size};
  const SapExpect expect = sap_expect(cfg, n);
  std::uint64_t rng = opt.seed;

  sap::SapSimulation sim = [&] {
    obs::Span span("perfbench.sap.construct");
    return sap::SapSimulation::balanced(cfg, n, opt.seed);
  }();
  const double construct_s = since(start);
  out.op("construct", sim.device_count() == n ? "" : "device count differs");

  double dropped = 0;
  auto round = [&](const char* name, bool compromised) {
    obs::Span span(name);
    const auto t0 = Clock::now();
    const sap::RoundReport r = sim.run_round();
    const double wall = since(t0);
    out.op(name, check_sap_round(
                     expect, {r.verified, r.total().ns(), r.u_ca_bytes},
                     compromised));
    out.rounds.push_back({r.verified, r.t_resp.ns(), r.u_ca_bytes, r.messages});
    dropped += static_cast<double>(r.dropped);
    return wall;
  };

  const double cold_s = round("perfbench.sap.cold_round", false);
  const double first_verdict_s = since(start);
  const PdesCounters before = pdes_counters(sim);
  const std::vector<double> warm = measure_rounds(
      opt, [&] { return round("perfbench.sap.warm_round", false); });
  const PdesCounters after = pdes_counters(sim);
  const double warm_s = median(warm);
  sim_layers(out, sim, before, after, warm.size(), warm_s, dropped);

  // Untimed: one seeded compromised device must fail the next round.
  sim.compromise_device(static_cast<net::NodeId>(1 + mix64(rng) % n));
  round("perfbench.sap.compromised_round", true);

  common_metrics(out, n, first_verdict_s, construct_s, cold_s, warm_s);
  return out;
}

// --- seda-join-100k ---------------------------------------------------

Outcome run_seda(const RunOptions& opt, Clock::time_point start,
                 CryptoShape& shape) {
  Outcome out;
  const std::uint32_t n = opt.devices != 0 ? opt.devices : 100'000;
  seda::SedaConfig cfg;
  cfg.sim.threads = opt.threads;
  shape = CryptoShape{32, "seda-x25519", cfg.pmem_size};
  const std::uint64_t want_bytes = seda_u_ca_bytes(cfg, n);
  std::uint64_t rng = opt.seed;

  seda::SedaSimulation sim = [&] {
    obs::Span span("perfbench.seda.construct");
    return seda::SedaSimulation::balanced(cfg, n, opt.seed);
  }();
  const double construct_s = since(start);
  out.op("construct", sim.device_count() == n ? "" : "device count differs");

  double join_s = 0;
  std::uint32_t edges = 0;
  {
    obs::Span span("perfbench.seda.join");
    const auto t0 = Clock::now();
    const seda::SedaJoinReport j = sim.run_join();
    join_s = since(t0);
    edges = j.edges;
    out.op("join", check_seda_join(n, {j.complete, j.edges}));
  }

  double dropped = 0;
  auto round = [&](const char* name, std::uint32_t compromised) {
    obs::Span span(name);
    const auto t0 = Clock::now();
    const seda::SedaRoundReport r = sim.run_round();
    const double wall = since(t0);
    out.op(name, check_seda_round(n, want_bytes,
                                  {r.verified, r.total, r.passed, r.u_ca_bytes},
                                  compromised));
    out.rounds.push_back({r.verified, r.t_resp.ns(), r.u_ca_bytes, r.messages});
    dropped += static_cast<double>(
        sim.metrics().counter_value("net.messages_dropped"));
    return wall;
  };

  const double cold_s = round("perfbench.seda.cold_round", 0);
  const double first_verdict_s = since(start);
  const PdesCounters before = pdes_counters(sim);
  const std::vector<double> warm = measure_rounds(
      opt, [&] { return round("perfbench.seda.warm_round", 0); });
  const PdesCounters after = pdes_counters(sim);
  const double warm_s = median(warm);
  sim_layers(out, sim, before, after, warm.size(), warm_s, dropped);

  sim.compromise_device(static_cast<net::NodeId>(1 + mix64(rng) % n));
  round("perfbench.seda.compromised_round", 1);

  common_metrics(out, n, first_verdict_s, construct_s, cold_s, warm_s);
  out.layer("seda.join_s", join_s, "s");
  out.layer("seda.join_us_per_edge", edges ? join_s * 1e6 / edges : 0.0, "us");
  return out;
}

// --- wire-loopback-20k ------------------------------------------------

struct WireParams {
  WireShape shape;
  Bytes master;
  std::vector<std::uint32_t> bad;  // compromised devices per agent
};

struct SessionResult {
  double run_s = 0;            // VerifierDaemon::run(): registration + rounds
  Clock::time_point built;     // daemon and agents constructed
  WireSessionFacts facts;
  double latency_sum_us = 0;   // wire.daemon.round_latency_us
  double latency_count = 0;
  double rx_datagrams = 0;
  double repolls = 0;
  double stale_tokens = 0;
  double rounds_overrun = 0;
};

/// Stops and joins the agent threads on every exit path.
struct AgentThreads {
  std::vector<std::unique_ptr<wire::AgentRunner>> runners;
  std::vector<std::thread> threads;

  AgentThreads() = default;
  AgentThreads(const AgentThreads&) = delete;
  AgentThreads& operator=(const AgentThreads&) = delete;
  ~AgentThreads() {
    for (auto& r : runners) r->stop();
    for (auto& t : threads) t.join();
  }
};

SessionResult run_session(const WireParams& p, std::uint32_t rounds) {
  SessionResult res;
  wire::DaemonConfig dcfg;
  dcfg.port = 0;
  dcfg.devices = p.shape.devices;
  dcfg.master = p.master;
  dcfg.content_size = p.shape.content_size;
  dcfg.rounds = rounds;
  dcfg.period_ms = 1;  // the smallest period the daemon accepts
  wire::VerifierDaemon daemon(std::move(dcfg));

  AgentThreads agents;
  const std::uint32_t share = p.shape.devices / p.shape.agents;
  for (std::uint32_t a = 0; a < p.shape.agents; ++a) {
    wire::AgentRunnerConfig acfg;
    acfg.daemon = wire::Endpoint::loopback(daemon.local_port());
    acfg.agent.first_id = 1 + a * share;
    acfg.agent.count =
        a + 1 == p.shape.agents ? p.shape.devices - a * share : share;
    acfg.agent.master = p.master;
    acfg.agent.content_size = p.shape.content_size;
    acfg.agent.bad = p.bad[a];
    agents.runners.push_back(std::make_unique<wire::AgentRunner>(std::move(acfg)));
  }
  res.built = Clock::now();
  for (auto& r : agents.runners) {
    agents.threads.emplace_back([runner = r.get()] { runner->run(); });
  }
  {
    obs::Span span("perfbench.wire.session");
    const auto t0 = Clock::now();
    daemon.run();
    res.run_s = since(t0);
  }

  const obs::MetricsRegistry& m = daemon.metrics();
  auto c = [&](const char* name) { return m.counter_value(name); };
  res.facts = WireSessionFacts{daemon.rounds_completed(),
                               c("wire.daemon.tokens_received"),
                               c("wire.daemon.tokens_missing"),
                               c("wire.daemon.devices_healthy"),
                               c("wire.daemon.devices_untrusted"),
                               c("wire.daemon.devices_unreachable"),
                               c("wire.daemon.devices_rebooted"),
                               c("wire.daemon.rounds_verified")};
  if (const obs::Histogram* h = m.find_histogram("wire.daemon.round_latency_us")) {
    res.latency_sum_us = static_cast<double>(h->sum());
    res.latency_count = static_cast<double>(h->count());
  }
  res.rx_datagrams = static_cast<double>(c("wire.daemon.rx_datagrams"));
  res.repolls = static_cast<double>(c("wire.daemon.repolls"));
  res.stale_tokens = static_cast<double>(c("wire.daemon.stale_tokens"));
  res.rounds_overrun = static_cast<double>(c("wire.daemon.rounds_overrun"));
  return res;
}

Outcome run_wire(const RunOptions& opt, Clock::time_point start,
                 CryptoShape& shape) {
  Outcome out;
  WireParams p;
  if (opt.devices != 0) p.shape.devices = opt.devices;
  shape = CryptoShape{20, "sap-device-key", p.shape.content_size};
  std::uint64_t rng = opt.seed;
  p.master.resize(32);
  for (auto& b : p.master) b = static_cast<std::uint8_t>(mix64(rng));
  // The seed splits the compromised set between the two agents; each
  // agent tampers with the first `bad` devices of its range.
  const std::uint32_t k0 =
      static_cast<std::uint32_t>(mix64(rng) % (p.shape.compromised + 1));
  p.bad = {k0, p.shape.compromised - k0};

  auto session = [&](std::uint32_t rounds) {
    SessionResult s = run_session(p, rounds);
    out.op("session construct", "");
    const std::string problem = check_wire_session(
        p.shape.devices, p.shape.compromised, rounds, s.facts);
    out.ops("wire rounds", rounds, problem);
    return s;
  };

  // The first verdict: cold set-up, registration and one round.
  const SessionResult first = session(1);
  const double construct_s =
      std::chrono::duration<double>(first.built - start).count();
  const double first_verdict_s = since(start);

  // Steady state: pairs of a short and a long session. The difference
  // cancels registration and each session's fixed start-up.
  const double dr = opt.wire_long_rounds - opt.wire_short_rounds;
  std::vector<double> per_round, fixed;
  SessionResult sum;
  double rounds_total = 0;
  const auto t0 = Clock::now();
  while (per_round.size() < opt.min_reps ||
         (since(t0) < opt.seconds && per_round.size() < opt.max_reps)) {
    const SessionResult a = session(opt.wire_short_rounds);
    const SessionResult b = session(opt.wire_long_rounds);
    const double pr = (b.run_s - a.run_s) / dr;
    per_round.push_back(pr);
    fixed.push_back(a.run_s - opt.wire_short_rounds * pr);
    for (const SessionResult* s : {&a, &b}) {
      sum.latency_sum_us += s->latency_sum_us;
      sum.latency_count += s->latency_count;
      sum.rx_datagrams += s->rx_datagrams;
      sum.repolls += s->repolls;
      sum.stale_tokens += s->stale_tokens;
      sum.rounds_overrun += s->rounds_overrun;
    }
    rounds_total += opt.wire_short_rounds + opt.wire_long_rounds;
  }
  const double round_s = median(per_round);
  std::fprintf(stderr, "%s: %zu session pairs, s per round:", opt.workload.c_str(),
               per_round.size());
  for (double r : per_round) std::fprintf(stderr, " %.5f", r);
  std::fprintf(stderr, "\n");

  common_metrics(out, p.shape.devices, first_verdict_s, construct_s,
                 first.run_s, round_s);
  zero_layers(out, {"sim.events_per_round", "sim.cross_posts_per_round",
                    "sim.epochs_per_round", "sim.lane_reallocs",
                    "net.messages_per_round", "net.bytes_per_round",
                    "net.messages_dropped"});
  const double open_ms =
      sum.latency_count > 0 ? sum.latency_sum_us / sum.latency_count / 1e3 : 0;
  out.layer("wire.open_round_ms_mean", open_ms, "ms");
  out.layer("wire.close_gap_ms", round_s * 1e3 - open_ms, "ms");
  out.layer("wire.session_fixed_s", median(fixed), "s");
  out.layer("wire.rx_datagrams_per_round", sum.rx_datagrams / rounds_total, "count");
  out.layer("wire.repolls", sum.repolls, "count");
  out.layer("wire.stale_tokens", sum.stale_tokens, "count");
  out.layer("wire.rounds_overrun_per_round", sum.rounds_overrun / rounds_total,
            "count");
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sap-1m", "seda-join-100k",
                                                 "wire-loopback-20k"};
  return names;
}

Outcome run_workload(const RunOptions& opt, Clock::time_point process_start) {
  using Fn = Outcome (*)(const RunOptions&, Clock::time_point, CryptoShape&);
  Fn fn = nullptr;
  if (opt.workload == "sap-1m") fn = run_sap;
  if (opt.workload == "seda-join-100k") fn = run_seda;
  if (opt.workload == "wire-loopback-20k") fn = run_wire;
  if (fn == nullptr) {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }

  std::unique_ptr<obs::TraceSink> sink;
  if (opt.trace) {
    sink = std::make_unique<obs::TraceSink>();
    obs::set_global_sink(sink.get());
  }
  struct Uninstall {
    bool active;
    ~Uninstall() {
      if (active) obs::set_global_sink(nullptr);
    }
  } uninstall{opt.trace};

  CryptoShape shape;
  Outcome out = fn(opt, process_start, shape);
  out.backend = crypto::active_backend().name();
  if (opt.trace) {
    probe_crypto(shape, opt.seed, out);
    probe_wire(WireShape{}, opt.seed, out);
    if (!opt.trace_path.empty() && !sink->write_file(opt.trace_path)) {
      out.failures.push_back("trace: could not write " + opt.trace_path);
    }
  }
  return out;
}

}  // namespace perfbench
