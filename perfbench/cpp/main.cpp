// cra_perfbench: runs one benchmark workload and prints its result as
// the last line of standard output (see report.hpp for the shape).
//
//   cra_perfbench --workload sap-1m --seed 7 --seconds 15 [--trace-out t.json]
//
// Tracing (--trace-out) installs an obs::TraceSink, runs the per-layer
// probes after the workload and writes the Chrome trace there.
// --devices and --threads shrink a workload for diagnosis; the
// benchmark itself always runs the workloads' own sizes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cra_perfbench --workload NAME --seed N --seconds S\n"
               "         [--trace-out PATH] [--devices N] [--threads N]\n"
               "workloads:");
  for (const auto& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u32(const char* s, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v > 0xffffffffUL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      ok = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      ok = end != v && *end == '\0' && opt.seconds >= 0;
    } else if (flag == "--trace-out") {
      opt.trace = true;
      opt.trace_path = v;
    } else if (flag == "--devices") {
      ok = parse_u32(v, opt.devices);
    } else if (flag == "--threads") {
      ok = parse_u32(v, opt.threads) && opt.threads >= 1 && opt.threads <= 4;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "cra_perfbench: bad flag or value: %s %s\n",
                   flag.c_str(), v);
      return usage();
    }
  }
  if (opt.workload.empty()) return usage();

  try {
    const perfbench::Outcome out = perfbench::run_workload(opt, process_start);
    for (const std::string& f : out.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    std::printf("%s\n", perfbench::outcome_json(out).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cra_perfbench: %s\n", e.what());
    return 1;
  }
}
