// What one benchmark run hands back: the operation ledger, the checks
// that failed, the end-to-end metrics and the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Simulated outputs of one round, kept so runs at different thread
/// counts can be compared field by field.
struct RoundFacts {
  bool verified = false;
  std::int64_t t_resp_ns = 0;
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t messages = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check ("<operation>: <what differed>").
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<RoundFacts> rounds;
  /// crypto::Backend the run used.
  std::string backend;

  bool correct() const noexcept { return failures.empty(); }

  /// Count one operation; `problem` empty = its checks passed.
  void op(const std::string& what, const std::string& problem) {
    ops(what, 1, problem);
  }
  /// Count `n` operations checked together (one failure line if not).
  void ops(const std::string& what, std::uint64_t n, const std::string& problem);
  void e2e(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
};

/// The run's result as one line of JSON:
/// {"correct", "attempted", "failed", "backend", "failures", "end_to_end",
/// "layers"}
/// with each metric as {"value", "unit"}.
std::string outcome_json(const Outcome& outcome);

}  // namespace perfbench
