// The benchmark's workloads, driven through the libraries' public entry
// points. One call runs one workload end to end: set-up, the timed
// operations, the correctness checks and (when tracing) the per-layer
// probes and the Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall time the steady-state measurement phase runs for (warm
  /// rounds, or wire session pairs), after set-up and the first round.
  double seconds = 10.0;
  /// Install an obs::TraceSink, run the per-layer probes and write the
  /// Chrome trace to `trace_path`.
  bool trace = false;
  std::string trace_path;

  // Size overrides; 0 = the workload's own size. Tests shrink these.
  std::uint32_t devices = 0;
  std::uint32_t threads = 4;
  /// Bounds on the measured repetitions: warm rounds for the
  /// simulations, short/long session pairs for the wire workload.
  std::uint32_t min_reps = 3;
  std::uint32_t max_reps = 1000;
  /// Wire workload: rounds in the short and the long session of a pair.
  std::uint32_t wire_short_rounds = 60;
  std::uint32_t wire_long_rounds = 260;
};

const std::vector<std::string>& workload_names();

/// Runs `opt.workload`; `process_start` anchors setup_s and
/// first_verdict_s. Throws std::invalid_argument for an unknown name.
Outcome run_workload(const RunOptions& opt, Clock::time_point process_start);

}  // namespace perfbench
