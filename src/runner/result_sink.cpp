#include "runner/result_sink.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace resex::runner {

using sim::format_double;
using sim::json_escape;

ResultSink::ResultSink(std::vector<Metric> metrics)
    : metrics_(std::move(metrics)) {
  if (metrics_.empty()) {
    throw std::invalid_argument("ResultSink: need at least one metric");
  }
  names_.reserve(metrics_.size());
  for (const auto& m : metrics_) names_.push_back(m.name);
}

ResultSink ResultSink::named(std::vector<std::string> metric_names) {
  std::vector<Metric> metrics;
  metrics.reserve(metric_names.size());
  for (auto& name : metric_names) {
    // Extractors are never invoked on the generic path (values arrive raw).
    metrics.push_back(
        {std::move(name), [](const core::ScenarioResult&) { return 0.0; }});
  }
  return ResultSink(std::move(metrics));
}

std::vector<ResultSink::PointView> ResultSink::view(
    const std::vector<PointOutcome>& outcomes) const {
  std::vector<PointView> views;
  views.reserve(outcomes.size());
  for (const auto& po : outcomes) {
    PointView v;
    v.label = &po.point.label;
    v.params = &po.point.params;
    v.seeds.reserve(po.trials.size());
    v.values.reserve(po.trials.size());
    for (const auto& trial : po.trials) {
      v.seeds.push_back(trial.seed);
      std::vector<double> row;
      row.reserve(metrics_.size());
      for (const auto& m : metrics_) row.push_back(m.extract(trial.scenario));
      v.values.push_back(std::move(row));
    }
    views.push_back(std::move(v));
  }
  return views;
}

std::vector<ResultSink::PointView> ResultSink::view(
    const std::vector<GenericOutcome>& outcomes) {
  std::vector<PointView> views;
  views.reserve(outcomes.size());
  for (const auto& go : outcomes) {
    PointView v;
    v.label = &go.label;
    v.params = &go.params;
    v.seeds = go.seeds;
    v.values = go.trial_values;
    views.push_back(std::move(v));
  }
  return views;
}

std::vector<std::vector<Aggregate>> ResultSink::aggregate_views(
    const std::vector<PointView>& views) const {
  std::vector<std::vector<Aggregate>> out;
  out.reserve(views.size());
  for (const auto& v : views) {
    std::vector<Aggregate> per_metric;
    per_metric.reserve(names_.size());
    for (std::size_t m = 0; m < names_.size(); ++m) {
      std::vector<double> samples;
      samples.reserve(v.values.size());
      for (const auto& row : v.values) samples.push_back(row.at(m));
      per_metric.push_back(aggregate(samples));
    }
    out.push_back(std::move(per_metric));
  }
  return out;
}

sim::Table ResultSink::table_views(const std::vector<PointView>& views) const {
  bool with_ci = false;
  for (const auto& v : views) with_ci = with_ci || v.values.size() > 1;

  std::vector<std::string> columns{"point"};
  for (const auto& name : names_) {
    columns.push_back(name);
    if (with_ci) columns.push_back(name + "_ci95");
  }
  sim::Table table(std::move(columns));

  const auto aggs = aggregate_views(views);
  for (std::size_t p = 0; p < views.size(); ++p) {
    std::vector<sim::Cell> row{*views[p].label};
    for (const auto& a : aggs[p]) {
      row.emplace_back(a.mean);
      if (with_ci) row.emplace_back(a.ci95);
    }
    table.add_row(std::move(row));
  }
  return table;
}

void ResultSink::write_json_views(std::ostream& os,
                                  const std::vector<PointView>& views) const {
  const auto aggs = aggregate_views(views);
  os << "{\n  \"schema\": \"resex.runner/v1\",\n  \"metrics\": [";
  for (std::size_t m = 0; m < names_.size(); ++m) {
    os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m]) << "\"";
  }
  os << "],\n  \"points\": [\n";
  for (std::size_t p = 0; p < views.size(); ++p) {
    const auto& v = views[p];
    os << "    {\n      \"label\": \"" << json_escape(*v.label) << "\",\n"
       << "      \"params\": {";
    for (std::size_t i = 0; i < v.params->size(); ++i) {
      const auto& param = (*v.params)[i];
      os << (i == 0 ? "" : ", ") << "\"" << json_escape(param.name)
         << "\": \"" << json_escape(param.value) << "\"";
    }
    os << "},\n      \"trials\": [\n";
    for (std::size_t r = 0; r < v.values.size(); ++r) {
      os << "        {\"replicate\": " << r << ", \"seed\": " << v.seeds[r]
         << ", \"metrics\": {";
      for (std::size_t m = 0; m < names_.size(); ++m) {
        os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m])
           << "\": " << format_double(v.values[r][m]);
      }
      os << "}}" << (r + 1 < v.values.size() ? "," : "") << "\n";
    }
    os << "      ],\n      \"aggregates\": {";
    for (std::size_t m = 0; m < names_.size(); ++m) {
      const auto& a = aggs[p][m];
      os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m])
         << "\": {\"n\": " << a.n << ", \"mean\": " << format_double(a.mean)
         << ", \"stddev\": " << format_double(a.stddev)
         << ", \"p50\": " << format_double(a.p50)
         << ", \"p99\": " << format_double(a.p99)
         << ", \"ci95\": " << format_double(a.ci95) << "}";
    }
    os << "}\n    }" << (p + 1 < views.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void save_file(const std::string& what, const std::string& path,
               const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(what + ": cannot open " + path);
  write(out);
  if (!out) throw std::runtime_error(what + ": write failed for " + path);
}

}  // namespace resex::runner
