#include "probes.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <vector>

#include "crypto/backend.hpp"
#include "crypto/kdf.hpp"
#include "crypto/mac_cache.hpp"
#include "crypto/x25519.hpp"
#include "obs/trace.hpp"
#include "sap/messages.hpp"
#include "sap/verifier.hpp"
#include "wire/agent.hpp"
#include "wire/frame.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 15;

// Results feed this so the optimizer cannot drop a probed call.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches of (batch wall time / calls), in nanoseconds.
/// `call(i)` performs the i-th call of a batch.
template <typename F>
double median_ns_per_call(const char* span_name, int calls, F&& call) {
  std::array<double, kBatches> per_call{};
  for (int b = 0; b < kBatches; ++b) {
    cra::obs::Span span(span_name);
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) call(b * calls + i);
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    per_call[static_cast<std::size_t>(b)] = dt.count() / calls;
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

cra::Bytes seeded_bytes(std::uint64_t& state, std::size_t n) {
  cra::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(mix64(state));
  return b;
}

}  // namespace

std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void probe_crypto(const CryptoShape& shape, std::uint64_t seed, Outcome& out) {
  using namespace cra;
  std::uint64_t rng = seed ^ 0xc0ffee;
  const Bytes master = seeded_bytes(rng, 32);

  const double derive_ns = median_ns_per_call(
      "crypto.derive_device_key", 200, [&](int i) {
        const Bytes k = crypto::derive_device_key(
            master, static_cast<std::uint32_t>(i + 1), shape.key_len,
            shape.key_label);
        g_sink = g_sink + k[0];
      });
  out.layer("crypto.derive_device_key_us", derive_ns / 1e3, "us");

  std::vector<crypto::X25519Key> scalars(kBatches * 20);
  for (auto& s : scalars) {
    const Bytes b = seeded_bytes(rng, crypto::kX25519KeySize);
    std::memcpy(s.data(), b.data(), s.size());
  }
  std::vector<crypto::X25519Key> pubs(scalars.size());
  const double base_ns =
      median_ns_per_call("crypto.x25519_base", 20, [&](int i) {
        const auto idx = static_cast<std::size_t>(i);
        pubs[idx] = crypto::x25519_base(scalars[idx]);
      });
  out.layer("crypto.x25519_base_us", base_ns / 1e3, "us");

  const double dh_ns = median_ns_per_call("crypto.x25519", 20, [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto shared = crypto::x25519(scalars[idx], pubs[pubs.size() - 1 - idx]);
    g_sink = g_sink + shared[0];
  });
  out.layer("crypto.x25519_us", dh_ns / 1e3, "us");

  // Token-sized jobs as the agents batch them: 64-byte content || tick.
  constexpr std::size_t kJobs = 512;
  std::vector<crypto::PrecomputedMac> macs(kJobs);
  std::vector<Bytes> contents(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    macs[i].init(crypto::HashAlg::kSha1, seeded_bytes(rng, 20));
    contents[i] = seeded_bytes(rng, 64);
  }
  std::array<std::uint8_t, 4> tick{1, 0, 0, 0};
  std::vector<crypto::MacJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i] = crypto::MacJob{&macs[i], contents[i], BytesView(tick.data(), 4)};
  }
  std::vector<crypto::MacBuf> tokens(kJobs);
  const crypto::Backend& backend = crypto::active_backend();
  const double batch_ns =
      median_ns_per_call("crypto.hmac_batch", 8, [&](int) {
        backend.hmac_batch(jobs.data(), kJobs, tokens.data());
        g_sink = g_sink + tokens[0].bytes[0];
      });
  out.layer("crypto.hmac_batch_ns_per_mac", batch_ns / kJobs, "ns");

  // The per-device attestation MAC: content (the workload's PMEM size)
  // followed by the 4-byte challenge tick, through the scalar path.
  const Bytes content = seeded_bytes(rng, shape.content_size);
  const int scalar_calls =
      static_cast<int>(std::clamp<std::size_t>(262'144 / (shape.content_size + 64),
                                               4, 4096));
  crypto::MacBuf buf;
  const double scalar_ns =
      median_ns_per_call("crypto.mac_scalar", scalar_calls, [&](int) {
        macs[0].mac_into(content, BytesView(tick.data(), 4), buf);
        g_sink = g_sink + buf.bytes[0];
      });
  out.layer("crypto.mac_scalar_ns_per_mac", scalar_ns, "ns");
}

void probe_wire(const WireShape& shape, std::uint64_t seed, Outcome& out) {
  using namespace cra;
  std::uint64_t rng = seed ^ 0x0ddba11;
  const Bytes master = seeded_bytes(rng, 32);
  const std::uint32_t share = shape.devices / shape.agents;

  std::vector<wire::AgentCore> cores;
  for (std::uint32_t a = 0; a < shape.agents; ++a) {
    wire::AgentConfig cfg;
    cfg.first_id = 1 + a * share;
    cfg.count = a + 1 == shape.agents ? shape.devices - a * share : share;
    cfg.master = master;
    cfg.content_size = shape.content_size;
    cfg.bad = a == 0 ? shape.compromised : 0;
    cores.emplace_back(std::move(cfg));
  }

  // One agent's answer to a fresh challenge: hash sweep plus packing.
  std::uint32_t tick = 1;
  std::vector<double> payload_ms;
  for (int i = 0; i < 9; ++i) {
    obs::Span span("wire.token_payloads");
    const auto t0 = Clock::now();
    const auto payloads = cores[0].token_payloads(++tick, {});
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    payload_ms.push_back(dt.count());
    g_sink = g_sink + payloads.size();
  }
  std::sort(payload_ms.begin(), payload_ms.end());
  out.layer("wire.token_payloads_ms", payload_ms[payload_ms.size() / 2], "ms");

  // One round of reports shaped as the daemon holds them: decoded from
  // the agents' token payloads, in arrival order.
  ++tick;
  std::vector<sap::DeviceReport> reports;
  Bytes frame_bytes;
  for (auto& core : cores) {
    for (const Bytes& p : core.token_payloads(tick, {})) {
      const auto decoded = sap::decode_identify_ex(p, 20);
      if (decoded) reports.insert(reports.end(), decoded->begin(), decoded->end());
      if (frame_bytes.empty()) {
        wire::FrameHeader h;
        h.kind = wire::FrameKind::kTokens;
        h.sender = 1;
        h.tick = tick;
        frame_bytes = wire::encode_frame(h, p);
      }
    }
  }
  sap::SapConfig vcfg;
  vcfg.qoa = sap::QoaMode::kIdentify;
  vcfg.adaptive.enabled = true;
  sap::Verifier verifier(vcfg, shape.devices, master);
  for (std::uint32_t id = 1; id <= shape.devices; ++id) {
    verifier.set_expected_content(
        id, wire::device_content(master, id, shape.content_size));
  }
  (void)verifier.classify(reports, tick);  // fills the lazy key caches
  std::vector<double> classify_ms;
  for (int i = 0; i < 9; ++i) {
    obs::Span span("wire.classify");
    const auto t0 = Clock::now();
    const auto verdict = verifier.classify(reports, tick);
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    classify_ms.push_back(dt.count());
    g_sink = g_sink + verdict.untrusted;
  }
  std::sort(classify_ms.begin(), classify_ms.end());
  out.layer("wire.classify_ms", classify_ms[classify_ms.size() / 2], "ms");

  const double decode_ns =
      median_ns_per_call("wire.decode_frame", 2000, [&](int) {
        const auto frame = wire::decode_frame(frame_bytes);
        g_sink = g_sink + (frame ? frame->payload.size() : 0);
      });
  out.layer("wire.decode_frame_ns", decode_ns, "ns");
}

}  // namespace perfbench
