// Metrics registry: named counters, gauges, and log-scale histograms.
//
// The paper's evaluation (Figs. 3a-3c, Tables 2-3) is entirely about
// measured quantities — per-phase runtime, bytes on the wire, per-device
// energy — and the benches need those numbers to be *trustworthy* under
// sharded parallel execution. This registry is the single accounting
// surface the network, protocol, and bench layers write to:
//
//   * Registration (`counter("net.bytes_transmitted")`) happens once at
//     setup and may allocate; the returned handle is a stable pointer
//     into the registry, and every hot-path update through it is plain
//     integer arithmetic — no hashing, no locking, no allocation.
//   * The sharded engine (sim::ParallelScheduler) owns one registry per
//     shard; each is written only by its shard's worker, and they merge
//     in fixed shard order at the run() barrier. Merging is commutative
//     for every instrument (counters add, gauges take max, histograms
//     add bucket-wise), so threads=1 and threads=N report identical
//     values for any metric whose event stream is itself deterministic
//     (see docs/observability.md for the exact guarantee).
//   * JSON export iterates the sorted name map, so serialized output is
//     byte-stable across runs and thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace cra::obs {

/// Monotonically increasing event count. Merge: sum.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value. Merge: maximum over the set gauges
/// (the natural reduction for "latest event time" / watermark metrics,
/// which is what the protocol layers use gauges for).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    set_ = true;
  }
  /// Raise to `v` if `v` is larger (or the gauge was never set).
  void max_in(std::int64_t v) noexcept {
    if (!set_ || v > value_) set(v);
  }
  std::int64_t value() const noexcept { return value_; }
  bool is_set() const noexcept { return set_; }
  void reset() noexcept {
    value_ = 0;
    set_ = false;
  }

 private:
  std::int64_t value_ = 0;
  bool set_ = false;
};

/// Fixed-bucket log2 histogram: bucket i counts samples whose value has
/// bit-width i (i.e. v in [2^(i-1), 2^i), bucket 0 = {0}). Recording is
/// allocation-free and branch-light; 65 buckets cover the whole uint64
/// range, which is plenty for byte counts and durations. Merge: buckets
/// add, min/max fold.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }
  void merge_from(const Histogram& other) noexcept;
  void reset() noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  /// Find-or-create. The returned reference is stable for the life of
  /// the registry (node-based map), so call sites cache it once and hit
  /// plain memory afterwards.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-only lookups; a missing name reads as zero/unset.
  std::uint64_t counter_value(std::string_view name) const noexcept;
  std::int64_t gauge_value(std::string_view name) const noexcept;
  const Histogram* find_histogram(std::string_view name) const noexcept;

  /// Fold `other` into this registry: counters add, gauges max, and
  /// histograms add bucket-wise, under `prefix` + name. Merging shard
  /// registries in any order yields the same totals (every reduction is
  /// commutative and associative); the engine still merges in fixed
  /// shard order so even non-commutative future instruments would stay
  /// deterministic.
  void merge_from(const MetricsRegistry& other, std::string_view prefix = {});

  /// Zero every instrument, keeping registrations (and thus every cached
  /// handle) intact. Used at round boundaries.
  void reset_values() noexcept;

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// in sorted order — byte-stable across runs and thread counts.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  // std::map: sorted iteration gives deterministic export, node-based
  // storage gives stable handle addresses. Lookups are registration-time
  // only, so the O(log n) compare cost never sits on a hot path.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace cra::obs
