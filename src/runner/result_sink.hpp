#pragma once
// ResultSink: structured export of replicated sweep results — aligned
// console tables (via sim::Table), CSV, and a deterministic JSON document
// (schema "resex.runner/v1") suitable for the BENCH_*.json perf trajectory.
// No wall-clock times, hostnames, or unordered containers appear in the
// output, so a parallel run's files are byte-identical to a serial run's.

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/replicator.hpp"
#include "sim/report.hpp"

namespace resex::runner {

/// Named scalar extracted from a finished scenario for tables and export.
struct Metric {
  std::string name;
  std::function<double(const core::ScenarioResult&)> extract;
};

/// Open `path`, hand the stream to `write`, and throw std::runtime_error
/// naming `what` when the file cannot be opened or written.
void save_file(const std::string& what, const std::string& path,
               const std::function<void(std::ostream&)>& write);

class ResultSink {
 public:
  explicit ResultSink(std::vector<Metric> metrics);

  /// Sink for generic outcomes, which carry raw values instead of scenarios.
  static ResultSink named(std::vector<std::string> metric_names);

  [[nodiscard]] const std::vector<std::string>& metric_names() const noexcept {
    return names_;
  }

  /// Per-point, per-metric aggregates (ordered as the outcomes are). Takes a
  /// vector of PointOutcome or of GenericOutcome, as do the exports below.
  template <typename Outcomes>
  [[nodiscard]] std::vector<std::vector<Aggregate>> aggregates(
      const Outcomes& outcomes) const {
    return aggregate_views(view(outcomes));
  }

  /// Aligned table: one row per point, mean per metric; when any point has
  /// 2+ replicates, each metric also gets a "<name>_ci95" half-width column.
  [[nodiscard]] sim::Table table(
      const std::vector<PointOutcome>& outcomes) const {
    return table_views(view(outcomes));
  }
  [[nodiscard]] sim::Table table(
      const std::vector<GenericOutcome>& outcomes) const {
    return table_views(view(outcomes));
  }

  template <typename Outcomes>
  void write_json(std::ostream& os, const Outcomes& outcomes) const {
    write_json_views(os, view(outcomes));
  }

  /// File variants; throw std::runtime_error on I/O failure.
  template <typename Outcomes>
  void save_json(const std::string& path, const Outcomes& outcomes) const {
    save_file("ResultSink::save_json", path,
              [&](std::ostream& os) { write_json(os, outcomes); });
  }
  template <typename Outcomes>
  void save_csv(const std::string& path, const Outcomes& outcomes) const {
    save_file("ResultSink::save_csv", path,
              [&](std::ostream& os) { table(outcomes).write_csv(os); });
  }

 private:
  /// Rows of raw per-trial metric values for one point, [replicate][metric].
  struct PointView {
    const std::string* label;
    const std::vector<Param>* params;
    std::vector<std::uint64_t> seeds;
    std::vector<std::vector<double>> values;
  };

  [[nodiscard]] std::vector<PointView> view(
      const std::vector<PointOutcome>& outcomes) const;
  [[nodiscard]] static std::vector<PointView> view(
      const std::vector<GenericOutcome>& outcomes);

  [[nodiscard]] std::vector<std::vector<Aggregate>> aggregate_views(
      const std::vector<PointView>& views) const;
  [[nodiscard]] sim::Table table_views(
      const std::vector<PointView>& views) const;
  void write_json_views(std::ostream& os,
                        const std::vector<PointView>& views) const;

  std::vector<Metric> metrics_;
  std::vector<std::string> names_;
};

/// Per-trial obs metrics snapshots as one deterministic JSON document
/// (schema "resex.metrics/v1"): entries ordered by (point, replicate), each
/// carrying the point label, seed, and the snapshot taken at the end of the
/// trial. Trials run without collect_metrics contribute empty snapshots;
/// trials run with a metrics_period also carry a "series" array of periodic
/// snapshots ordered by sim time. Works for any scenario type's outcomes.
template <typename Config, typename Result>
void write_metrics_json(std::ostream& os,
                        const std::vector<Outcome<Config, Result>>& outcomes) {
  os << "{\"schema\":\"resex.metrics/v1\",\"trials\":[";
  bool first = true;
  for (const auto& po : outcomes) {
    for (const auto& trial : po.trials) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "{\"label\":\"" << sim::json_escape(po.point.label)
         << "\",\"point\":" << trial.point
         << ",\"replicate\":" << trial.replicate << ",\"seed\":" << trial.seed
         << ",\"snapshot\":" << obs::to_json(trial.scenario.metrics);
      const auto& series = trial.scenario.metrics_series;
      if (!series.empty()) {
        // Periodic snapshots (--metrics-period): the same document shape as
        // "snapshot", ordered by sim time.
        os << ",\"series\":[";
        for (std::size_t s = 0; s < series.size(); ++s) {
          os << (s == 0 ? "" : ",") << obs::to_json(series[s]);
        }
        os << "]";
      }
      os << "}";
    }
  }
  os << "\n]}\n";
}

/// File variant; throws std::runtime_error on I/O failure.
template <typename Config, typename Result>
void save_metrics_json(const std::string& path,
                       const std::vector<Outcome<Config, Result>>& outcomes) {
  save_file("save_metrics_json", path,
            [&](std::ostream& os) { write_metrics_json(os, outcomes); });
}

}  // namespace resex::runner
