#include "core/harness.hpp"

#include <iostream>

#include "congestion/dcqcn.hpp"
#include "fault/fault.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace resex::core {

ScenarioHarness::ScenarioHarness(sim::Simulation& sim, fabric::Fabric& fabric,
                                 hv::Node& control_node,
                                 const congestion::CongestionConfig& congestion,
                                 const std::string& faults, Obs obs)
    : sim_(&sim), obs_(std::move(obs)) {
  if (!obs_.trace_path.empty()) sim.tracer().enable();

  if (congestion.rate_control && congestion.ecn_kmax > 0) {
    rate_controller_ =
        std::make_unique<congestion::RateController>(fabric, congestion.dcqcn);
  }

  const fault::FaultPlan plan = fault::FaultPlan::parse(faults);
  if (plan.any()) {
    // Stream 0xFA17 keeps the injector's draws clear of every workload
    // stream; keying on the scenario seed makes fault runs replicable.
    injector_ = std::make_unique<fault::FaultInjector>(
        plan, sim::derive(obs_.seed, 0xFA17));
    injector_->arm(fabric, &control_node);
    // Surface the injector's tallies in the metrics snapshot, next to the
    // fabric's own health counters (retransmits, qp errors).
    sim.metrics().gauge_fn("fault.drops_injected", [inj = injector_.get()] {
      return static_cast<double>(inj->drops_injected());
    });
    sim.metrics().gauge_fn("fault.corrupts_injected", [inj = injector_.get()] {
      return static_cast<double>(inj->corrupts_injected());
    });
  }
}

ScenarioHarness::~ScenarioHarness() = default;

void ScenarioHarness::run_until(sim::SimTime end) {
  // The periodic snapshot loop also streams every registered metric into the
  // trace sink as counter tracks, so --trace + --metrics-period lines the
  // metric time series up under the spans in the same file.
  const bool series = obs_.collect_metrics && obs_.metrics_period > 0;
  if (series || (sim_->tracer().enabled() && obs_.metrics_period > 0)) {
    sim_->spawn([](sim::Simulation& sim, sim::SimDuration period,
                   std::vector<obs::MetricsSnapshot>* out) -> sim::Task {
      for (;;) {
        co_await sim.delay(period);
        if (out != nullptr) out->push_back(sim.metrics().snapshot(sim.now()));
        sim.metrics().emit_to_tracer(sim.tracer());
      }
    }(*sim_, obs_.metrics_period, series ? &series_ : nullptr));
  }
  sim_->run_until(end);
}

void ScenarioHarness::finish(obs::MetricsSnapshot& metrics,
                             std::vector<obs::MetricsSnapshot>& series,
                             std::initializer_list<FrameSpan> frame) {
  if (obs_.collect_metrics) {
    metrics = sim_->metrics().snapshot(sim_->now());
    series = std::move(series_);
  }
  obs::Tracer& tracer = sim_->tracer();
  if (tracer.enabled()) {
    // The framing spans are the newest events, so they survive any ring
    // wrap and every trace shows the harness layer.
    for (const FrameSpan& span : frame) {
      tracer.complete(span.name, span.category, 0, span.dur,
                      {"seed", static_cast<double>(obs_.seed)}, span.arg);
    }
  }
  if (!obs_.trace_path.empty()) {
    try {
      obs::save_trace(obs_.trace_path, tracer);
    } catch (const std::exception& e) {
      std::cerr << "scenario trace: " << e.what() << "\n";
    }
  }
}

}  // namespace resex::core
