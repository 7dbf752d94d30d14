#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace simbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"sim_s_per_s", "sim_s/s", "higher"},
      {"peak_rss_mb", "MiB", "lower"},
      {"model_bulk_mbps", "MB/sim_s", "higher"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // Simulated results whose spread across seeds is wider than any
      // allowed bound on fattree_scaleout (the broker's migration timing
      // depends on the seed), so they are reported here, unbounded.
      {"model_p99_us", "sim_us", "lower"},
      {"model_p50_us", "sim_us", "lower"},
      {"model_samples", "count", "higher"},
      {"model_viol_pct", "%", "lower"},
      // sim
      {"sim.events", "count", "lower"},
      {"sim.ns_per_event", "ns", "lower"},
      {"sim.allocs_per_event", "allocs/event", "lower"},
      {"sim.queue_ns.shallow", "ns", "lower"},
      {"sim.queue_ns.deep", "ns", "lower"},
      {"sim.resume_ns", "ns", "lower"},
      // fabric + HCA
      {"fabric.traversals", "count", "lower"},
      {"fabric.events_per_traversal", "events", "lower"},
      {"fabric.traversal_ns.single_lane", "ns", "lower"},
      {"fabric.traversal_ns.lanes", "ns", "lower"},
      {"hca.post_ns", "ns", "lower"},
      {"hca.posts", "count", "higher"},
      {"fabric.switch_hops", "count", "lower"},
      {"fabric.max_link_util", "ratio", "higher"},
      // congestion, qos, routing
      {"fabric.drops", "count", "lower"},
      {"fabric.pfc_pauses", "count", "lower"},
      {"fabric.retransmits", "count", "lower"},
      {"qos.vl_grants.vl0", "count", "higher"},
      {"qos.vl_grants.vl1", "count", "higher"},
      {"qos.vl_paused_ms", "sim_ms", "lower"},
      {"routing.lookup_ns", "ns", "lower"},
      // hv, ibmon, core
      {"hv.cap_changes", "count", "lower"},
      {"hv.advance_ns", "ns", "lower"},
      {"ibmon.samples", "count", "higher"},
      {"ibmon.sample_ns", "ns", "lower"},
      {"core.intervals", "count", "higher"},
      {"core.cap_adjustments", "count", "lower"},
      // benchex, finance
      {"benchex.requests", "count", "higher"},
      {"finance.process_ns", "ns", "lower"},
      // cluster
      {"cluster.migrations", "count", "lower"},
      {"cluster.migration_mb", "MB", "lower"},
      {"cluster.blackout_ms", "sim_ms", "lower"},
      {"cluster.calibrate_s", "s", "lower"},
      // collective
      {"coll.rounds", "count", "higher"},
      {"coll.steps", "count", "higher"},
      {"coll.round_ms", "sim_ms", "lower"},
      // runner
      {"runner.parallel_eff", "ratio", "higher"},
      {"runner.tail_idle_s", "s", "lower"},
      // obs and the traced run's span self times
      {"obs.trace_overhead_pct", "%", "lower"},
      {"host.construct_s", "s", "lower"},
      {"host.deploy_s", "s", "lower"},
      {"host.slices_s", "s", "lower"},
      {"host.collect_s", "s", "lower"},
      {"est.queue_share_pct", "%", "lower"},
      {"est.fabric_share_pct", "%", "lower"},
  };
  return defs;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!first) out += ", ";
    first = false;
    const auto it = values.find(d.name);
    out += json_string(d.name) + ": {\"value\": " +
           (it == values.end() ? std::string("null") : json_number(it->second)) +
           ", \"unit\": " + json_string(d.unit) + "}";
  }
  return out + "}}";
}

}  // namespace simbench
