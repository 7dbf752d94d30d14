#pragma once
// resex::runner — parallel experiment execution with multi-seed replication
// and structured result export. Umbrella header.
//
// The pieces (each usable on its own):
//   ThreadPool   fixed-size FIFO worker pool + exception-safe parallel_for
//   Sweep        cartesian grid builder over ScenarioConfig
//   Replicator   N derived-seed replicates per point, ordered outcomes, for
//                any scenario type (two-node testbed or N-node cluster)
//   ResultSink   aligned tables, CSV, deterministic JSON (resex.runner/v1)
//   RunnerOptions  the --jobs/--seeds/--seed/--json/--csv CLI surface
//
// Because every trial runs its own single-threaded deterministic simulation
// and results are stored by trial index, a run with any --jobs value
// produces byte-identical per-trial results to a serial run.

#include <stdexcept>
#include <string>

#include "runner/options.hpp"      // IWYU pragma: export
#include "runner/replicator.hpp"   // IWYU pragma: export
#include "runner/result_sink.hpp"  // IWYU pragma: export
#include "runner/sweep.hpp"        // IWYU pragma: export
#include "runner/thread_pool.hpp"  // IWYU pragma: export
#include "runner/trial.hpp"        // IWYU pragma: export

namespace resex::runner {

/// Apply the command line's scenario overrides to one point's config:
/// --seed, --faults, the congestion flags, --qos, and --routing/--ecmp-seed/
/// --vl-shift. Throws std::invalid_argument for routing flags on a config
/// without a routing field: the two-node testbed has one path.
template <typename Config>
void apply_overrides(Config& config, const RunnerOptions& opts) {
  if (opts.seed.has_value()) config.seed = *opts.seed;
  if (!opts.faults.empty()) config.faults = opts.faults;
  if (opts.congestion_set()) {
    auto& c = config.congestion;
    c.buffer_pkts = opts.buf_pkts;
    c.ecn_kmin = opts.ecn_kmin;
    c.ecn_kmax = opts.ecn_kmax;
    // Marking without reaction just loses information; the CLI pairs them.
    c.rate_control = opts.ecn_kmax > 0;
    if (opts.pool_alpha > 0.0) {
      // --pool-alpha reinterprets --buf-bytes as the shared pool size.
      c.pool_bytes = opts.buf_bytes;
      c.pool_alpha = opts.pool_alpha;
    } else {
      c.buffer_bytes = opts.buf_bytes;
    }
    c.pfc = opts.pfc;
  }
  if (opts.qos_set()) config.qos = opts.qos;
  if constexpr (requires { config.routing; }) {
    if (opts.routing_set()) config.routing = opts.routing;
  } else if (opts.routing_set()) {
    throw std::invalid_argument(
        std::string(opts.routing.multipath() ? "--routing" : "--vl-shift") +
        ": needs a multi-switch fabric; this bench runs the two-node "
        "testbed");
  }
}

/// Run `points` under `opts`: the CLI overrides applied to every point, a
/// pool of resolved_jobs() workers, opts.seeds replicates per point, and
/// per-trial --trace/--metrics-json settings. Every trial runs through
/// `scenario`. Outcomes are ordered by (point, replicate) regardless of jobs.
template <typename Config, typename Result>
[[nodiscard]] std::vector<Outcome<Config, Result>> run_sweep(
    std::vector<ScenarioPoint<Config>> points, const RunnerOptions& opts,
    Result (*scenario)(const Config&)) {
  for (auto& p : points) apply_overrides(p.config, opts);
  ThreadPool pool(opts.resolved_jobs());
  ObsOptions obs;
  obs.trace_base = opts.trace_path;
  obs.collect_metrics = !opts.metrics_path.empty();
  obs.metrics_period = static_cast<sim::SimDuration>(
      opts.metrics_period_ms * static_cast<double>(sim::kMillisecond));
  return Replicator(pool, opts.seeds, std::move(obs)).run(points, scenario);
}

/// Two-node testbed points, run through core::run_scenario.
[[nodiscard]] std::vector<PointOutcome> run_sweep(
    std::vector<SweepPoint> points, const RunnerOptions& opts);

/// Generic-point variant (trials that are not a single scenario call).
[[nodiscard]] std::vector<GenericOutcome> run_generic(
    std::vector<GenericPoint> points, const RunnerOptions& opts);

}  // namespace resex::runner
