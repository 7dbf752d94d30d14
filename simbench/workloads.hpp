#pragma once
// The benchmark's workloads, each assembled from the simulator's public
// APIs so the benchmark can reach the Simulation, the channels and the
// layer objects that the canned entry points (resex::core::run_scenario,
// resex::cluster::run_cluster_scenario) keep to themselves.
//
//   paper_2vm         the paper's Section VII case: a 64KB reporting VM at
//                     2000 req/s beside a closed-loop 2MB interferer under
//                     FreeMarket ResEx (IBMon every 100 us, controller
//                     epochs). Two hosts, one switch, one lane.
//   fattree_scaleout  the cluster scenario on a 16-node 2-tier fat-tree:
//                     four reporting services share hosts with four
//                     interferers, broker and pre-copy migration on.
//   lanes_allreduce   back-to-back 8-rank ring all-reduces striped across two
//                     leaves, two qos classes, per-class PFC, vl_shift and
//                     ECMP over 2 spines, with a latency victim on SL0 that
//                     crosses the trunks.
//   lanes_allreduce_leaf
//                     the same, with the victim inside one leaf.
//   sweep_parallel    a runner::run_generic sweep of paper_2vm trials of
//                     unequal length, listed smallest first.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "cluster/scenario.hpp"
#include "spans.hpp"

namespace simbench {

enum class WorkloadId : std::uint8_t {
  kPaper2vm,
  kFattreeScaleout,
  kLanesAllreduce,
  kLanesAllreduceLeaf,
  kSweepParallel,
};

[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(WorkloadId w) noexcept;
[[nodiscard]] std::vector<WorkloadId> all_workloads();

/// Simulated (model) results: deterministic for a given seed.
struct ModelMetrics {
  double p50_us = 0.0;  // latency-sensitive client latency
  double p99_us = 0.0;
  std::uint64_t samples = 0;
  double viol_pct = 0.0;   // samples above the calibrated solo mean + 15%
  double bulk_mbps = 0.0;  // useful bulk-class bytes per simulated second
};

/// One trial: set up, run, collect.
struct TrialResult {
  // Host seconds: CPU time of the trial's thread, except run_s of a sweep.
  double setup_s = 0.0;      // everything before the timed run
  double calibrate_s = 0.0;  // the SLA calibration runs inside setup
  double run_s = 0.0;        // the timed run (the wall makespan of a sweep)
  double busy_s = 0.0;       // timed-run host seconds summed over threads
  // Simulated seconds the timed run advanced (summed over sweep trials).
  double sim_s = 0.0;
  // Simulator work in the timed run: kernel events, operator new calls.
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  ModelMetrics model;
  /// Exact per-layer counts read from public getters, keyed by metric name.
  std::map<std::string, double> counts;
  /// Digest of the simulated outputs (model results and wire counters).
  std::string digest;
  /// Conservation checks that failed; empty = the trial is correct.
  std::vector<std::string> failures;
  // sweep_parallel only: runner host behaviour.
  double trial_host_s = 0.0;  // wall time of each sweep trial, summed
  double tail_idle_s = 0.0;
  std::size_t jobs = 1;
};

struct TrialContext {
  std::uint64_t seed = 1;
  SpanRecorder* spans = nullptr;
  int trial = 0;
  /// Worker threads for sweep_parallel.
  std::size_t jobs = 4;
};

/// Run one trial of `w`. Throws on a simulator error or a watchdog trip.
[[nodiscard]] TrialResult run_trial(WorkloadId w, const TrialContext& ctx);

// --- assemblies shared with the benchmark's tests --------------------------

/// paper_2vm's scenario, as a resex::core::ScenarioConfig (FreeMarket policy).
[[nodiscard]] resex::core::ScenarioConfig paper_2vm_config(std::uint64_t seed);

/// The benchmark's own assembly of a resex::core::ScenarioConfig (the subset
/// paper_2vm uses: no faults, congestion, qos or tracing), with the timed
/// run split into slices. `baseline_total_us` plays the role of
/// ScenarioConfig::baseline_mean_us. Returns the scenario result in
/// resex::core::run_scenario's shape plus the benchmark's trial record.
struct Paper2vmRun {
  resex::core::ScenarioResult scenario;
  TrialResult trial;
};
[[nodiscard]] Paper2vmRun run_paper_2vm_assembly(
    const resex::core::ScenarioConfig& cfg, double baseline_total_us,
    double sla_limit_us, const TrialContext& ctx);

/// Solo calibration for paper_2vm: the same reporting workload, no
/// interferer, no policy, 300 ms. Returns {client mean, server total}.
struct Calibration {
  double client_mean_us = 0.0;
  double server_total_us = 0.0;
};
[[nodiscard]] Calibration calibrate_paper_2vm(const resex::core::ScenarioConfig& cfg);

/// fattree_scaleout's scenario, as a resex::cluster::ClusterScenarioConfig.
[[nodiscard]] resex::cluster::ClusterScenarioConfig fattree_config(std::uint64_t seed);

/// The benchmark's own assembly of a resex::cluster::ClusterScenarioConfig (the
/// subset fattree_scaleout uses), calibrating like run_cluster_scenario.
struct FattreeRun {
  resex::cluster::ClusterScenarioResult scenario;
  TrialResult trial;
};
[[nodiscard]] FattreeRun run_fattree_assembly(
    const resex::cluster::ClusterScenarioConfig& cfg, const TrialContext& ctx);

}  // namespace simbench
