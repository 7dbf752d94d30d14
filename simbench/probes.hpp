#pragma once
// Layer probes: host cost of one layer's public function, timed on inputs
// shaped like the workloads'. Everything inside Simulation::run_until
// interleaves the layers, so until the simulator can attribute its own time
// a probe's cost multiplied by the workload's count is only an estimate of
// that layer's share.

#include <map>
#include <string>

#include "spans.hpp"

namespace simbench {

/// Runs every probe once (each under a "probe.<metric>" span) and returns
/// host nanoseconds per operation keyed by per-layer metric name:
/// sim.queue_ns.shallow, sim.queue_ns.deep, sim.resume_ns,
/// fabric.traversal_ns.single_lane, fabric.traversal_ns.lanes, hca.post_ns,
/// routing.lookup_ns, hv.advance_ns, ibmon.sample_ns, finance.process_ns.
[[nodiscard]] std::map<std::string, double> run_probes(SpanRecorder& spans);

}  // namespace simbench
