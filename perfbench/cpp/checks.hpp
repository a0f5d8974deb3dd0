// Expected outputs, computed apart from the program.
//
// Every value here is derived from the configuration fields and the
// paper's equations, never by calling the library's own analysis
// functions (sap/analysis.hpp, SedaSimulation::predicted_*), so a bug
// shared by a protocol and its analysis cannot make a check pass.
//
// Each check returns an empty string when the facts match and a short
// description of the first difference otherwise; the benchmark counts
// an operation as failed iff its check returns non-empty.
#pragma once

#include <cstdint>
#include <string>

#include "sap/config.hpp"
#include "seda/seda.hpp"

namespace perfbench {

// --- SAP (Lemma 2, Lemma 3, Equation 9) ---

/// Depth of the balanced `arity`-ary tree whose root (the verifier)
/// has `devices` descendants: the smallest d with k + k^2 + ... + k^d
/// >= devices.
std::uint32_t tree_depth(std::uint32_t devices, std::uint32_t arity);

/// SHA-1/SHA-256 compression calls for HMAC over `message_len` bytes
/// with a key of at most one block.
std::uint64_t hmac_blocks(std::size_t message_len);

/// Equation 9's lead time plus Lemma 3's T_CA, in nanoseconds: the
/// lower end of a round's simulated duration.
std::int64_t sap_round_floor_ns(const cra::sap::SapConfig& config,
                                std::uint32_t depth);

/// One secure-clock tick in nanoseconds, as a ratio (num / den) so the
/// bound is exact: tick = clock_divisor / device_hz seconds.
struct Tick {
  std::uint64_t num = 0;  // clock_divisor * 1e9
  std::uint64_t den = 1;  // device_hz
};
Tick sap_tick(const cra::sap::SapConfig& config);

/// Lemma 2: every edge carries one challenge and one token.
std::uint64_t sap_u_ca_bytes(const cra::sap::SapConfig& config,
                             std::uint32_t edges);

struct SapExpect {
  std::int64_t floor_ns = 0;  // predicted total
  Tick tick;
  std::uint64_t u_ca_bytes = 0;
};
SapExpect sap_expect(const cra::sap::SapConfig& config,
                     std::uint32_t devices);

struct SapRoundFacts {
  bool verified = false;
  std::int64_t total_ns = 0;  // t_resp - t_chal
  std::uint64_t u_ca_bytes = 0;
};
/// A round with no compromised device must verify, cost Lemma 2's
/// bytes and last [floor, floor + one tick). With a compromised device
/// it must not verify (bytes and time are unchanged).
std::string check_sap_round(const SapExpect& expect,
                            const SapRoundFacts& facts, bool compromised);

// --- SEDA ---

/// Request (nonce + signature) plus report (counts + MAC) per edge.
std::uint64_t seda_u_ca_bytes(const cra::seda::SedaConfig& config,
                              std::uint32_t edges);

struct SedaJoinFacts {
  bool complete = false;
  std::uint32_t edges = 0;
};
std::string check_seda_join(std::uint32_t devices, const SedaJoinFacts& facts);

struct SedaRoundFacts {
  bool verified = false;
  std::uint32_t total = 0;
  std::uint32_t passed = 0;
  std::uint64_t u_ca_bytes = 0;
};
/// Every device is counted; all but the `compromised` ones pass; the
/// round verifies iff none is compromised.
std::string check_seda_round(std::uint32_t devices, std::uint64_t u_ca_bytes,
                             const SedaRoundFacts& facts,
                             std::uint32_t compromised);

// --- Wire (live verifier daemon, identify mode) ---

struct WireSessionFacts {
  std::uint64_t rounds_completed = 0;
  std::uint64_t tokens_received = 0;
  std::uint64_t tokens_missing = 0;
  std::uint64_t devices_healthy = 0;
  std::uint64_t devices_untrusted = 0;
  std::uint64_t devices_unreachable = 0;
  std::uint64_t devices_rebooted = 0;
  std::uint64_t rounds_verified = 0;
};
/// Every round collects all `devices` tokens and classifies exactly the
/// `compromised` devices the benchmark tampered with as untrusted.
std::string check_wire_session(std::uint32_t devices, std::uint32_t compromised,
                               std::uint32_t rounds,
                               const WireSessionFacts& facts);

}  // namespace perfbench
