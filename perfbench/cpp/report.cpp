#include "report.hpp"

#include <utility>

#include "common/json.hpp"

namespace perfbench {

void Outcome::ops(const std::string& what, std::uint64_t n,
                  const std::string& problem) {
  attempted += n;
  if (problem.empty()) return;
  failed += n;
  failures.push_back(what + ": " + problem);
}

void Outcome::e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::layer(std::string name, double value, std::string unit) {
  layers.push_back({std::move(name), value, std::move(unit)});
}

namespace {

void write_metrics(cra::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value).field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string outcome_json(const Outcome& outcome) {
  cra::JsonWriter w;
  w.begin_object();
  w.field("correct", outcome.correct());
  w.field("attempted", outcome.attempted);
  w.field("failed", outcome.failed);
  w.field("backend", outcome.backend);
  w.key("failures").begin_array();
  for (const std::string& f : outcome.failures) w.value(f);
  w.end_array();
  w.key("end_to_end");
  write_metrics(w, outcome.end_to_end);
  w.key("layers");
  write_metrics(w, outcome.layers);
  w.end_object();
  return w.str();
}

}  // namespace perfbench
