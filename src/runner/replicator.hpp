#pragma once
// Replicator: runs every sweep point N times with independent deterministic
// seed streams (trial r of a point uses sim::derive(config.seed, r)) and
// returns outcomes ordered by (point, replicate) — the same order a serial
// loop would produce, whatever the pool size. One loop serves every scenario
// type: the two-node testbed (core::run_scenario) and the N-node cluster
// (cluster::run_cluster_scenario) alike. Aggregate summarizes one
// metric across a point's replicates: mean, sample stddev, exact p50/p99,
// and a 95% Student-t confidence half-width.
//
// GenericPoint/GenericOutcome cover benches whose trials are not a single
// core::run_scenario call (e.g. the hardware-QoS ablation programs the HCA
// directly): a generic trial maps a seed to a vector of metric values.

#include <cstdint>
#include <functional>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "runner/trial.hpp"
#include "sim/rng.hpp"

namespace resex::runner {

struct Aggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (n-1); 0 when n < 2
  double p50 = 0.0;
  double p99 = 0.0;
  double ci95 = 0.0;  // confidence half-width; 0 when n < 2
};

[[nodiscard]] Aggregate aggregate(const std::vector<double>& values);

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (tabulated to df=30, 1.96 asymptote beyond).
[[nodiscard]] double student_t95(std::size_t df);

/// All trials of one sweep point, ordered by replicate index.
template <typename Config, typename Result>
struct Outcome {
  ScenarioPoint<Config> point;
  std::vector<TrialResult<Result>> trials;
};

/// The outcome of a two-node testbed point.
using PointOutcome = Outcome<core::ScenarioConfig, core::ScenarioResult>;

/// A point whose trial is an arbitrary seed -> metric-values function.
struct GenericPoint {
  std::string label;
  std::vector<Param> params;
  std::uint64_t seed = 1;  // base seed; replicates derive from it
  std::function<std::vector<double>(std::uint64_t seed)> run;
};

struct GenericOutcome {
  std::string label;
  std::vector<Param> params;
  std::vector<std::uint64_t> seeds;              // per replicate
  std::vector<std::vector<double>> trial_values;  // [replicate][metric]
};

/// Observability settings applied to every materialized trial.
struct ObsOptions {
  /// Base trace path; per-trial paths derive via trial_trace_path. Empty =
  /// tracing off.
  std::string trace_base;
  /// Snapshot each trial's metrics registry into its result. ORed
  /// with the point config's own collect_metrics, never cleared.
  bool collect_metrics = false;
  /// Periodic snapshot period (sim time); 0 = final snapshot only.
  sim::SimDuration metrics_period = 0;
};

class Replicator {
 public:
  /// `seeds` independent replicates per point (coerced to at least one).
  Replicator(ThreadPool& pool, std::size_t seeds, ObsOptions obs = {});

  /// Run every (point, replicate) trial of `points` through `scenario`.
  template <typename Config, typename Result>
  [[nodiscard]] std::vector<Outcome<Config, Result>> run(
      const std::vector<ScenarioPoint<Config>>& points,
      Result (*scenario)(const Config&)) const;

  /// Two-node testbed points, run through core::run_scenario.
  [[nodiscard]] std::vector<PointOutcome> run(
      const std::vector<SweepPoint>& points) const {
    return run(points, core::run_scenario);
  }

  [[nodiscard]] std::vector<GenericOutcome> run_generic(
      const std::vector<GenericPoint>& points) const;

  [[nodiscard]] std::size_t seeds() const noexcept { return seeds_; }

 private:
  ThreadPool* pool_;
  std::size_t seeds_;
  ObsOptions obs_;
};

template <typename Config, typename Result>
std::vector<Outcome<Config, Result>> Replicator::run(
    const std::vector<ScenarioPoint<Config>>& points,
    Result (*scenario)(const Config&)) const {
  // Materialize the full trial list up front: index = point * seeds +
  // replicate fixes the ordering independently of execution interleaving.
  std::vector<Outcome<Config, Result>> out(points.size());
  std::vector<Config> trials;
  trials.reserve(points.size() * seeds_);
  for (std::size_t p = 0; p < points.size(); ++p) {
    out[p].point = points[p];
    for (std::size_t r = 0; r < seeds_; ++r) {
      Config cfg = points[p].config;
      cfg.seed = sim::derive(points[p].config.seed, r);
      // Each trial's simulation is deterministic in isolation, so its trace
      // and metrics are byte-identical for any --jobs value.
      cfg.trace_path = trial_trace_path(obs_.trace_base, p, r);
      if (obs_.collect_metrics) cfg.collect_metrics = true;
      if (obs_.metrics_period > 0) cfg.metrics_period = obs_.metrics_period;
      trials.push_back(std::move(cfg));
    }
  }

  std::vector<Result> results(trials.size());
  parallel_for(*pool_, trials.size(), [&](std::size_t i) {
    results[i] = scenario(trials[i]);
  });

  for (std::size_t i = 0; i < trials.size(); ++i) {
    out[i / seeds_].trials.push_back(
        {i, i / seeds_, i % seeds_, trials[i].seed, std::move(results[i])});
  }
  return out;
}

}  // namespace resex::runner
