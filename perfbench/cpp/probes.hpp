// Per-layer probes: calls into one module at a time, timed from outside.
//
// Each probe runs a fixed number of batches of identical calls and
// reports the median time per call. Every batch is one span in the
// process-wide obs::TraceSink when one is installed, so the Chrome
// trace shows each timed call next to the protocols' own spans.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own input generator (seed -> inputs).
std::uint64_t mix64(std::uint64_t& state);

/// The live-verifier shape: one daemon, `agents` agent threads with
/// equal id ranges, `compromised` tampered devices split across them.
struct WireShape {
  std::uint32_t devices = 20'000;
  std::uint32_t agents = 2;
  std::uint32_t compromised = 16;
  std::size_t content_size = 64;
};

/// What the workload's devices look like to the crypto layer.
struct CryptoShape {
  std::size_t key_len = 20;
  std::string key_label = "sap-device-key";
  std::size_t content_size = 64;  // bytes MACed per attestation
};

/// crypto.derive_device_key_us, crypto.x25519_base_us, crypto.x25519_us,
/// crypto.hmac_batch_ns_per_mac (active backend, token-sized jobs) and
/// crypto.mac_scalar_ns_per_mac (PrecomputedMac over the content).
void probe_crypto(const CryptoShape& shape, std::uint64_t seed, Outcome& out);

/// wire.token_payloads_ms (one agent's range), wire.classify_ms (one
/// round of reports as the daemon holds them) and wire.decode_frame_ns
/// (one MTU-sized token frame).
void probe_wire(const WireShape& shape, std::uint64_t seed, Outcome& out);

}  // namespace perfbench
