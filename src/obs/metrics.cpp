#include "obs/metrics.hpp"

#include <bit>

namespace cra::obs {

void Histogram::record(std::uint64_t v) noexcept {
  ++buckets_[static_cast<std::size_t>(std::bit_width(v))];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

void Histogram::merge_from(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

std::uint64_t MetricsRegistry::counter_value(
    std::string_view name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const noexcept {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other,
                                 std::string_view prefix) {
  std::string name;
  const auto prefixed = [&](const std::string& n) -> std::string_view {
    if (prefix.empty()) return n;
    name.assign(prefix);
    name.append(n);
    return name;
  };
  for (const auto& [n, c] : other.counters_) {
    counter(prefixed(n)).inc(c.value());
  }
  for (const auto& [n, g] : other.gauges_) {
    if (g.is_set()) gauge(prefixed(n)).max_in(g.value());
  }
  for (const auto& [n, h] : other.histograms_) {
    histogram(prefixed(n)).merge_from(h);
  }
}

void MetricsRegistry::reset_values() noexcept {
  for (auto& [n, c] : counters_) c.reset();
  for (auto& [n, g] : gauges_) g.reset();
  for (auto& [n, h] : histograms_) h.reset();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [n, c] : counters_) w.field(n, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [n, g] : gauges_) w.field(n, g.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [n, h] : histograms_) {
    w.key(n).begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.key("buckets").begin_object();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.buckets()[i] != 0) {
        w.field(std::to_string(i), h.buckets()[i]);
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace cra::obs
