#pragma once
// The run-control plumbing every scenario shares: the DCQCN rate controller,
// the fault injector and its gauges, the periodic metrics loop (which also
// streams into the trace), the final metrics snapshot and the trace file.
// core::run_scenario (the two-node testbed) and cluster::run_cluster_scenario
// (N nodes) both run through one ScenarioHarness. Their configs name the
// shared fields alike (congestion, faults, seed, trace_path, collect_metrics,
// metrics_period), so the templates below read them by name.

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "congestion/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace resex::congestion {
class RateController;
}
namespace resex::fabric {
class Fabric;
}
namespace resex::fault {
class FaultInjector;
}
namespace resex::hv {
class Node;
}

namespace resex::core {

/// Turn `config` into a nested calibration probe: a short, fault-free run
/// that writes no trace and collects no metrics, so it cannot touch the outer
/// run's outputs (the SLA baseline is the healthy-fabric latency).
template <typename Config>
void make_probe(Config& config) {
  config.duration = 300 * sim::kMillisecond;
  config.trace_path.clear();
  config.collect_metrics = false;
  config.metrics_period = 0;
  config.faults.clear();
}

/// A top-level span [0, dur) framing a run's trace; its first argument is the
/// run's seed, `arg` its optional second.
struct FrameSpan {
  const char* name;
  const char* category;
  sim::SimDuration dur;
  obs::TraceArg arg{};
};

class ScenarioHarness {
 public:
  /// Enables tracing when config.trace_path is set, then builds the DCQCN
  /// rate controller (when enabled) and the fault injector (when a plan is
  /// given), whose control-path faults land on `control_node`. Build it
  /// before any workload: spawn order fixes event sequence numbers.
  template <typename Config>
  ScenarioHarness(sim::Simulation& sim, fabric::Fabric& fabric,
                  hv::Node& control_node, const Config& config)
      : ScenarioHarness(sim, fabric, control_node, config.congestion,
                        config.faults,
                        Obs{config.seed, config.trace_path,
                            config.collect_metrics, config.metrics_period}) {}
  ~ScenarioHarness();

  ScenarioHarness(const ScenarioHarness&) = delete;
  ScenarioHarness& operator=(const ScenarioHarness&) = delete;

  [[nodiscard]] bool faults_armed() const noexcept {
    return injector_ != nullptr;
  }

  /// Start the periodic metrics loop (when a period is set and metrics or
  /// tracing are on), then run the simulation until `end`.
  void run_until(sim::SimTime end);

  /// Take the final metrics snapshot (when collect_metrics is set), frame
  /// the trace with `frame` in order, and write the trace file. A failed
  /// write is reported on stderr: losing the trace is not worth losing the
  /// run's results over.
  void finish(obs::MetricsSnapshot& metrics,
              std::vector<obs::MetricsSnapshot>& series,
              std::initializer_list<FrameSpan> frame);

 private:
  struct Obs {
    std::uint64_t seed;
    std::string trace_path;
    bool collect_metrics;
    sim::SimDuration metrics_period;
  };

  ScenarioHarness(sim::Simulation& sim, fabric::Fabric& fabric,
                  hv::Node& control_node,
                  const congestion::CongestionConfig& congestion,
                  const std::string& faults, Obs obs);

  sim::Simulation* sim_;
  Obs obs_;
  std::unique_ptr<congestion::RateController> rate_controller_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<obs::MetricsSnapshot> series_;
};

}  // namespace resex::core
