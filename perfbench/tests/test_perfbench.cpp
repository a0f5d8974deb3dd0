// The benchmark's own tests, at small sizes:
//   * every workload runs through the same driver and passes its checks;
//   * both simulations give identical simulated outputs at 1 and 4
//     threads (verdict, t_resp, u_ca_bytes, message count);
//   * each correctness check fails when fed a wrong value;
//   * a traced run writes the Chrome trace and every per-layer metric
//     BENCHMARK.json lists.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "checks.hpp"
#include "crypto/hmac.hpp"
#include "sap/analysis.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

RunOptions small(const std::string& workload, std::uint32_t threads = 4) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = 11;
  opt.seconds = 0;
  opt.devices = 2000;
  opt.threads = threads;
  opt.min_reps = 2;
  opt.max_reps = 2;
  opt.wire_short_rounds = 3;
  opt.wire_long_rounds = 8;
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Metric names listed under `section` in BENCHMARK.json.
std::set<std::string> spec_names(const std::string& section) {
  const std::string spec = read_file(PERFBENCH_SPEC);
  std::set<std::string> names;
  std::size_t pos = spec.find("\"" + section + "\"");
  const std::size_t end = spec.find(']', pos);
  const std::string key = "\"name\": \"";
  while ((pos = spec.find(key, pos)) != std::string::npos && pos < end) {
    pos += key.size();
    names.insert(spec.substr(pos, spec.find('"', pos) - pos));
  }
  return names;
}

std::set<std::string> names_of(const std::vector<Metric>& metrics) {
  std::set<std::string> names;
  for (const Metric& m : metrics) names.insert(m.name);
  return names;
}

// --- every workload through the driver --------------------------------

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, RunsAndPassesItsChecks) {
  const Outcome out = run_workload(small(GetParam()), Clock::now());
  for (const std::string& f : out.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(out.correct());
  EXPECT_GT(out.attempted, 0u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(names_of(out.end_to_end), spec_names("end_to_end"));
  for (const Metric& m : out.end_to_end) {
    EXPECT_GT(m.value, 0.0) << m.name;
  }
}

TEST_P(WorkloadTest, TracedRunWritesTraceAndEveryLayerMetric) {
  RunOptions opt = small(GetParam());
  opt.trace = true;
  opt.trace_path = ::testing::TempDir() + "perfbench_" + GetParam() + ".json";
  const Outcome out = run_workload(opt, Clock::now());
  EXPECT_TRUE(out.correct());
  const std::set<std::string> have = names_of(out.layers);
  for (const std::string& name : spec_names("per_layer")) {
    EXPECT_TRUE(have.count(name)) << name;
  }
  const std::string trace = read_file(opt.trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"crypto.derive_device_key", "crypto.x25519",
                           "crypto.hmac_batch", "wire.classify",
                           "wire.token_payloads", "wire.decode_frame"}) {
    EXPECT_NE(trace.find(span), std::string::npos) << span;
  }
  std::remove(opt.trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values("sap-1m", "seda-join-100k",
                                           "wire-loopback-20k"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Workloads, SapTraceHoldsTheProtocolSpans) {
  RunOptions opt = small("sap-1m");
  opt.trace = true;
  opt.trace_path = ::testing::TempDir() + "perfbench_sap_spans.json";
  ASSERT_TRUE(run_workload(opt, Clock::now()).correct());
  const std::string trace = read_file(opt.trace_path);
  EXPECT_NE(trace.find("\"sap.round\""), std::string::npos);
  EXPECT_NE(trace.find("perfbench.sap.warm_round"), std::string::npos);
  std::remove(opt.trace_path.c_str());
}

TEST(Workloads, UnknownWorkloadThrows) {
  EXPECT_THROW(run_workload(small("no-such-workload"), Clock::now()),
               std::invalid_argument);
}

// --- thread-count invariance ------------------------------------------

class ThreadInvariance : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadInvariance, SimulatedOutputsEqualAtOneAndFourThreads) {
  const Outcome t1 = run_workload(small(GetParam(), 1), Clock::now());
  const Outcome t4 = run_workload(small(GetParam(), 4), Clock::now());
  ASSERT_TRUE(t1.correct());
  ASSERT_TRUE(t4.correct());
  ASSERT_EQ(t1.rounds.size(), t4.rounds.size());
  ASSERT_FALSE(t1.rounds.empty());
  for (std::size_t i = 0; i < t1.rounds.size(); ++i) {
    EXPECT_EQ(t1.rounds[i].verified, t4.rounds[i].verified) << "round " << i;
    EXPECT_EQ(t1.rounds[i].t_resp_ns, t4.rounds[i].t_resp_ns) << "round " << i;
    EXPECT_EQ(t1.rounds[i].u_ca_bytes, t4.rounds[i].u_ca_bytes) << "round " << i;
    EXPECT_EQ(t1.rounds[i].messages, t4.rounds[i].messages) << "round " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Simulations, ThreadInvariance,
                         ::testing::Values("sap-1m", "seda-join-100k"),
                         [](const auto& info) {
                           return std::string(info.param[0] == 's' &&
                                                      info.param[1] == 'a'
                                                  ? "sap"
                                                  : "seda");
                         });

// --- the independent expectations agree with the paper ------------------

TEST(Expect, TreeDepthMatchesTheHeapLayout) {
  EXPECT_EQ(tree_depth(1, 2), 1u);
  EXPECT_EQ(tree_depth(2, 2), 1u);
  EXPECT_EQ(tree_depth(3, 2), 2u);
  EXPECT_EQ(tree_depth(6, 2), 2u);
  EXPECT_EQ(tree_depth(7, 2), 3u);
  EXPECT_EQ(tree_depth(1'000'000, 2), 19u);  // log2(N + 2) - 1, rounded up
  for (std::uint32_t n : {1u, 5u, 100u, 4095u, 100'000u, 1'000'000u}) {
    EXPECT_EQ(tree_depth(n, 2), cra::sap::predicted_depth(n, 2)) << n;
    EXPECT_EQ(tree_depth(n, 3), cra::sap::predicted_depth(n, 3)) << n;
  }
}

TEST(Expect, HmacBlocksMatchTheCompressionTally) {
  for (std::size_t len : {0u, 1u, 55u, 56u, 64u, 119u, 120u, 51'204u}) {
    EXPECT_EQ(hmac_blocks(len),
              cra::crypto::hmac_compression_calls(cra::crypto::HashAlg::kSha1,
                                                  len))
        << len;
  }
}

TEST(Expect, SapFloorMatchesTheLibraryPrediction) {
  const cra::sap::SapConfig cfg;
  for (std::uint32_t n : {2000u, 1'000'000u}) {
    const std::uint32_t d = tree_depth(n, 2);
    EXPECT_EQ(sap_round_floor_ns(cfg, d), cra::sap::predicted_total(cfg, d).ns());
    EXPECT_EQ(sap_u_ca_bytes(cfg, n), cra::sap::predicted_u_ca_bytes(cfg, n));
  }
}

// --- each check fails on a wrong value ---------------------------------

class SapCheck : public ::testing::Test {
 protected:
  const cra::sap::SapConfig cfg;
  const SapExpect e = sap_expect(cfg, 2000);
  const SapRoundFacts good{true, e.floor_ns + 1000, e.u_ca_bytes};
};

TEST_F(SapCheck, AcceptsAGoodRound) {
  EXPECT_EQ(check_sap_round(e, good, false), "");
  SapRoundFacts bad = good;
  bad.verified = false;
  EXPECT_EQ(check_sap_round(e, bad, true), "");
}

TEST_F(SapCheck, FailsOnFlippedVerdict) {
  SapRoundFacts f = good;
  f.verified = false;
  EXPECT_NE(check_sap_round(e, f, false), "");
  EXPECT_NE(check_sap_round(e, good, true), "");
}

TEST_F(SapCheck, FailsOnByteCountOffByOne) {
  SapRoundFacts f = good;
  f.u_ca_bytes += 1;
  EXPECT_NE(check_sap_round(e, f, false), "");
  f.u_ca_bytes -= 2;
  EXPECT_NE(check_sap_round(e, f, false), "");
}

TEST_F(SapCheck, FailsOutsideOneTickAboveTheFloor) {
  SapRoundFacts f = good;
  f.total_ns = e.floor_ns;
  EXPECT_EQ(check_sap_round(e, f, false), "");
  f.total_ns = e.floor_ns - 1;
  EXPECT_NE(check_sap_round(e, f, false), "");
  // One tick = 250000 / 24 MHz = 10416666.67 ns.
  f.total_ns = e.floor_ns + 10'416'666;
  EXPECT_EQ(check_sap_round(e, f, false), "");
  f.total_ns = e.floor_ns + 10'416'667;
  EXPECT_NE(check_sap_round(e, f, false), "");
}

TEST(SedaCheck, FailsOnEachWrongValue) {
  const cra::seda::SedaConfig cfg;
  const std::uint32_t n = 2000;
  const std::uint64_t bytes = seda_u_ca_bytes(cfg, n);
  EXPECT_EQ(bytes, 80ull * n);  // 16 + 44 request, 4 + 4 + 12 report
  const SedaRoundFacts good{true, n, n, bytes};
  EXPECT_EQ(check_seda_round(n, bytes, good, 0), "");

  SedaRoundFacts f = good;
  f.verified = false;
  EXPECT_NE(check_seda_round(n, bytes, f, 0), "");
  f = good;
  f.total = n - 1;
  EXPECT_NE(check_seda_round(n, bytes, f, 0), "");
  f = good;
  f.passed = n - 1;
  EXPECT_NE(check_seda_round(n, bytes, f, 0), "");
  f = good;
  f.u_ca_bytes = bytes + 1;
  EXPECT_NE(check_seda_round(n, bytes, f, 0), "");

  // One compromised device: passed == N - 1 and no verdict.
  const SedaRoundFacts compromised{false, n, n - 1, bytes};
  EXPECT_EQ(check_seda_round(n, bytes, compromised, 1), "");
  EXPECT_NE(check_seda_round(n, bytes, good, 1), "");
  f = compromised;
  f.verified = true;
  EXPECT_NE(check_seda_round(n, bytes, f, 1), "");
}

TEST(SedaCheck, JoinFailsWhenIncompleteOrShort) {
  EXPECT_EQ(check_seda_join(2000, {true, 2000}), "");
  EXPECT_NE(check_seda_join(2000, {false, 2000}), "");
  EXPECT_NE(check_seda_join(2000, {true, 1999}), "");
}

TEST(WireCheck, FailsOnEachWrongValue) {
  const std::uint32_t n = 20'000, bad = 16, rounds = 5;
  const WireSessionFacts good{rounds, 1ull * n * rounds, 0,
                              1ull * (n - bad) * rounds, 1ull * bad * rounds,
                              0, 0, 0};
  EXPECT_EQ(check_wire_session(n, bad, rounds, good), "");

  auto fails = [&](auto mutate) {
    WireSessionFacts f = good;
    mutate(f);
    return !check_wire_session(n, bad, rounds, f).empty();
  };
  EXPECT_TRUE(fails([](auto& f) { f.rounds_completed -= 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.tokens_received -= 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.tokens_missing = 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.devices_untrusted += 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.devices_healthy -= 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.devices_unreachable = 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.devices_rebooted = 1; }));
  EXPECT_TRUE(fails([](auto& f) { f.rounds_verified = 1; }));
}

}  // namespace
}  // namespace perfbench
