#include "checks.hpp"

#include <sstream>

namespace perfbench {
namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;

std::size_t digest_bytes(cra::crypto::HashAlg alg) {
  return alg == cra::crypto::HashAlg::kSha1 ? 20 : 32;
}

/// ceil(a * b / c) without overflow for the magnitudes used here.
std::int64_t ceil_mul_div(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const unsigned __int128 n = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::int64_t>((n + c - 1) / c);
}

template <typename A, typename B>
std::string differ(const char* what, const A& got, const B& want) {
  std::ostringstream os;
  os << what << " = " << got << ", expected " << want;
  return os.str();
}

}  // namespace

std::uint32_t tree_depth(std::uint32_t devices, std::uint32_t arity) {
  std::uint64_t reach = 0;  // descendants within depth d
  std::uint64_t level = 1;
  std::uint32_t d = 0;
  while (reach < devices) {
    level *= arity;
    reach += level;
    ++d;
  }
  return d;
}

std::uint64_t hmac_blocks(std::size_t message_len) {
  // Inner hash: ipad block + message + 0x80 + 64-bit length, in 64-byte
  // blocks; outer hash: opad block + digest + padding fits in 2 blocks
  // for both SHA-1 (20 bytes) and SHA-256 (32 bytes).
  const std::uint64_t inner = (64 + message_len + 9 + 63) / 64;
  return inner + 2;
}

std::int64_t sap_round_floor_ns(const cra::sap::SapConfig& c,
                                std::uint32_t depth) {
  const std::size_t l = digest_bytes(c.alg);  // |chal| = |token| = l
  const std::int64_t tx =
      ceil_mul_div((l + c.link.header_bytes) * 8, kNsPerSec, c.link.rate_bps);
  const std::int64_t per_hop = c.link.per_hop_latency.ns();
  const std::int64_t copies = c.link.serialize_tx ? c.tree_arity : 1;
  const std::int64_t d = depth;
  const std::int64_t lead = (tx * copies + per_hop) * d + c.request_slack.ns();
  const std::uint64_t attest_cycles =
      c.attest_overhead_cycles + hmac_blocks(c.pmem_size + 4) * c.cycles_per_block;
  const std::int64_t t_att = ceil_mul_div(attest_cycles, kNsPerSec, c.device_hz);
  const std::int64_t t_agg =
      ceil_mul_div(c.aggregate_cycles, kNsPerSec, c.device_hz);
  return lead + t_att + (tx + per_hop + t_agg) * d;
}

Tick sap_tick(const cra::sap::SapConfig& c) {
  return Tick{static_cast<std::uint64_t>(c.clock_divisor) * kNsPerSec,
              c.device_hz};
}

std::uint64_t sap_u_ca_bytes(const cra::sap::SapConfig& c,
                             std::uint32_t edges) {
  const std::uint64_t l = digest_bytes(c.alg);
  return (l + l + 2ULL * c.link.header_bytes) * edges;
}

SapExpect sap_expect(const cra::sap::SapConfig& config,
                     std::uint32_t devices) {
  SapExpect e;
  e.floor_ns = sap_round_floor_ns(config, tree_depth(devices, config.tree_arity));
  e.tick = sap_tick(config);
  e.u_ca_bytes = sap_u_ca_bytes(config, devices);  // a tree: N edges
  return e;
}

std::string check_sap_round(const SapExpect& e, const SapRoundFacts& f,
                            bool compromised) {
  if (f.verified == compromised) {
    return compromised ? "round verified with a compromised device"
                       : "round did not verify";
  }
  if (f.u_ca_bytes != e.u_ca_bytes) {
    return differ("u_ca_bytes", f.u_ca_bytes, e.u_ca_bytes);
  }
  // floor <= total < floor + tick, with the tick kept as a fraction.
  const std::int64_t over = f.total_ns - e.floor_ns;
  if (over < 0 ||
      static_cast<unsigned __int128>(over) * e.tick.den >= e.tick.num) {
    std::ostringstream os;
    os << "round time " << f.total_ns << " ns outside [" << e.floor_ns
       << ", " << e.floor_ns << " + one tick)";
    return os.str();
  }
  return {};
}

std::uint64_t seda_u_ca_bytes(const cra::seda::SedaConfig& c,
                              std::uint32_t edges) {
  const std::uint64_t request = c.nonce_size + c.sig_size;
  const std::uint64_t report = 4 + 4 + c.report_mac_size;  // total, passed, MAC
  return (request + report + 2ULL * c.link.header_bytes) * edges;
}

std::string check_seda_join(std::uint32_t devices, const SedaJoinFacts& f) {
  if (!f.complete) return "join incomplete";
  if (f.edges != devices) return differ("join edges", f.edges, devices);
  return {};
}

std::string check_seda_round(std::uint32_t devices, std::uint64_t u_ca_bytes,
                             const SedaRoundFacts& f,
                             std::uint32_t compromised) {
  if (f.total != devices) return differ("total", f.total, devices);
  if (f.passed != devices - compromised) {
    return differ("passed", f.passed, devices - compromised);
  }
  if (f.verified != (compromised == 0)) {
    return compromised ? "round verified with a compromised device"
                       : "round did not verify";
  }
  if (f.u_ca_bytes != u_ca_bytes) {
    return differ("u_ca_bytes", f.u_ca_bytes, u_ca_bytes);
  }
  return {};
}

std::string check_wire_session(std::uint32_t devices, std::uint32_t compromised,
                               std::uint32_t rounds,
                               const WireSessionFacts& f) {
  const std::uint64_t r = rounds;
  if (f.rounds_completed != r) {
    return differ("rounds_completed", f.rounds_completed, r);
  }
  if (f.tokens_received != r * devices) {
    return differ("tokens_received", f.tokens_received, r * devices);
  }
  if (f.tokens_missing != 0) return differ("tokens_missing", f.tokens_missing, 0);
  if (f.devices_untrusted != r * compromised) {
    return differ("devices_untrusted", f.devices_untrusted, r * compromised);
  }
  if (f.devices_healthy != r * (devices - compromised)) {
    return differ("devices_healthy", f.devices_healthy,
                  r * (devices - compromised));
  }
  if (f.devices_unreachable != 0 || f.devices_rebooted != 0) {
    return "devices reported unreachable or rebooted";
  }
  const std::uint64_t verified = compromised == 0 ? r : 0;
  if (f.rounds_verified != verified) {
    return differ("rounds_verified", f.rounds_verified, verified);
  }
  return {};
}

}  // namespace perfbench
