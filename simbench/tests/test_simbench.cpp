// The benchmark's own tests: summary math, span self times, seed plumbing,
// the metric catalogue against BENCHMARK.json, and the identity checks that
// tie the benchmark's assemblies to the simulator's canned entry points.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "cluster/scenario.hpp"
#include "core/experiment.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace simbench;
using namespace resex::sim::literals;

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 99.0), 4.96);
  EXPECT_DOUBLE_EQ(percentile({7}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Stats, SummaryAndSpread) {
  const Summary s = summarize({10, 12, 8, 11, 9});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.median, 10.0);
  EXPECT_DOUBLE_EQ(s.p25, 9.0);
  EXPECT_DOUBLE_EQ(s.p75, 11.0);
  EXPECT_DOUBLE_EQ(s.rel_iqr(), 0.2);
  EXPECT_DOUBLE_EQ(summarize({}).rel_iqr(), 0.0);
}

TEST(Stats, PctAboveCountsStrictlyGreater) {
  EXPECT_DOUBLE_EQ(pct_above({1, 2, 3, 4}, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(pct_above({1, 2, 3, 4}, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(pct_above({}, 1.0), 0.0);
}

Span span(const char* name, double a, double b, int parent) {
  return Span{name, a, b, parent, 0, -1};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      span("root", 0, 10, -1),
      span("a", 1, 3, 0),
      span("b", 2, 5, 0),   // overlaps a: counted once
      span("c", 7, 8, 0),
      span("a.x", 1.5, 2, 1),
      span("late", 9, 12, 0),  // clipped to the parent's end
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 1.0 + 1.0));
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 3.0);
  const auto by_name = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 4.0);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder off(false);
  { ScopedSpan s(off, "x"); }
  EXPECT_EQ(off.add(span("y", 0, 1, -1)), -1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  { ScopedSpan s(on, "x"); }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_GE(on.spans()[0].end_s, on.spans()[0].start_s);
}

TEST(AllocCount, CountsThisThreadsOperatorNew) {
  const std::uint64_t a0 = thread_allocs();
  auto p = std::make_unique<int>(1);
  std::vector<int> v(100);
  EXPECT_EQ(thread_allocs() - a0, 2u);
}

/// The names in one array section ("end_to_end", "per_layer", "workloads")
/// of BENCHMARK.json, in file order.
std::vector<std::string> json_names(const std::string& text,
                                    const std::string& section) {
  const auto start = text.find("\"" + section + "\"");
  EXPECT_NE(start, std::string::npos) << section;
  const auto end = text.find(']', start);
  const std::string body = text.substr(start, end - start);
  std::vector<std::string> out;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

TEST(Catalogue, MetricAndWorkloadNamesMatchBenchmarkJson) {
  std::ifstream in(std::string(SIMBENCH_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::vector<std::string> e2e;
  for (const auto& d : end_to_end_metrics()) e2e.push_back(d.name);
  std::vector<std::string> layer;
  for (const auto& d : per_layer_metrics()) layer.push_back(d.name);
  EXPECT_EQ(json_names(text, "end_to_end"), e2e);
  EXPECT_EQ(json_names(text, "per_layer"), layer);
  for (const auto& w : json_names(text, "workloads")) {
    EXPECT_TRUE(parse_workload(w).has_value()) << w;
  }
  for (const auto& d : end_to_end_metrics()) {
    EXPECT_NE(text.find("\"unit\": \"" + std::string(d.unit) + "\""),
              std::string::npos)
        << d.name;
  }
}

TEST(Catalogue, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      result_line(true, 3, 0, end_to_end_metrics(), {{"setup_s", 0.5}});
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": "
                       "\"s\"}",
                       0),
            0u);
  EXPECT_NE(line.find("\"sim_s_per_s\": {\"value\": null"), std::string::npos);
}

resex::core::ScenarioConfig short_paper_config(std::uint64_t seed) {
  auto cfg = paper_2vm_config(seed);
  cfg.warmup = 20_ms;
  cfg.duration = 80_ms;
  return cfg;
}

TEST(Seeds, SameSeedSameDigestOtherSeedOtherDigest) {
  EXPECT_EQ(paper_2vm_config(7).seed, 7u);
  EXPECT_EQ(fattree_config(7).seed, 7u);
  TrialContext ctx;
  const auto a = run_paper_2vm_assembly(short_paper_config(3), 50.0, 300.0, ctx);
  const auto b = run_paper_2vm_assembly(short_paper_config(3), 50.0, 300.0, ctx);
  const auto c = run_paper_2vm_assembly(short_paper_config(4), 50.0, 300.0, ctx);
  EXPECT_EQ(a.trial.digest, b.trial.digest);
  EXPECT_NE(a.trial.digest, c.trial.digest);
  EXPECT_TRUE(a.trial.failures.empty());
}

TEST(Identity, Paper2vmAssemblyMatchesRunScenario) {
  auto cfg = short_paper_config(5);
  const Calibration cal = calibrate_paper_2vm(cfg);
  EXPECT_EQ(cal.server_total_us, resex::core::measure_base_total_us(cfg));
  cfg.baseline_mean_us = cal.server_total_us;
  const auto canned = resex::core::run_scenario(cfg);
  TrialContext ctx;
  const auto ours = run_paper_2vm_assembly(cfg, cal.server_total_us, 0.0, ctx);
  ASSERT_EQ(ours.scenario.reporting.size(), canned.reporting.size());
  EXPECT_EQ(ours.scenario.reporting[0].client_latency_us.values(),
            canned.reporting[0].client_latency_us.values());
  EXPECT_EQ(ours.scenario.reporting[0].requests, canned.reporting[0].requests);
  EXPECT_EQ(ours.scenario.reporting[0].total_us, canned.reporting[0].total_us);
  ASSERT_TRUE(ours.scenario.interferer.has_value());
  EXPECT_EQ(ours.scenario.interferer->requests, canned.interferer->requests);
  EXPECT_EQ(ours.scenario.interferer_mbps, canned.interferer_mbps);
  ASSERT_EQ(ours.scenario.timeline.size(), canned.timeline.size());
  for (std::size_t i = 0; i < canned.timeline.size(); ++i) {
    EXPECT_EQ(ours.scenario.timeline[i].at, canned.timeline[i].at);
    EXPECT_EQ(ours.scenario.timeline[i].cap, canned.timeline[i].cap);
  }
}

TEST(Identity, FattreeAssemblyMatchesRunClusterScenario) {
  auto cfg = fattree_config(2);
  cfg.warmup = 20_ms;
  cfg.duration = 130_ms;  // long enough for the broker to migrate
  const auto canned = resex::cluster::run_cluster_scenario(cfg);
  EXPECT_GT(canned.migration.migrations, 0u);
  TrialContext ctx;
  const auto ours = run_fattree_assembly(cfg, ctx);
  EXPECT_EQ(ours.scenario.sla_limit_us, canned.sla_limit_us);
  EXPECT_EQ(ours.scenario.baseline_total_us, canned.baseline_total_us);
  EXPECT_EQ(ours.scenario.violation_pct, canned.violation_pct);
  ASSERT_EQ(ours.scenario.services.size(), canned.services.size());
  for (std::size_t i = 0; i < canned.services.size(); ++i) {
    EXPECT_EQ(ours.scenario.services[i].requests, canned.services[i].requests);
    EXPECT_EQ(ours.scenario.services[i].client_p99_us,
              canned.services[i].client_p99_us);
    EXPECT_EQ(ours.scenario.services[i].violations,
              canned.services[i].violations);
    EXPECT_EQ(ours.scenario.services[i].final_node,
              canned.services[i].final_node);
  }
  ASSERT_EQ(ours.scenario.interferers.size(), canned.interferers.size());
  for (std::size_t i = 0; i < canned.interferers.size(); ++i) {
    EXPECT_EQ(ours.scenario.interferers[i].requests,
              canned.interferers[i].requests);
  }
  EXPECT_EQ(ours.scenario.migration.migrations, canned.migration.migrations);
  EXPECT_EQ(ours.scenario.migration.bytes, canned.migration.bytes);
}

TEST(Lanes, LeafVictimRoundsFinishLossless) {
  TrialContext ctx;
  ctx.seed = 3;
  const TrialResult r = run_trial(WorkloadId::kLanesAllreduceLeaf, ctx);
  EXPECT_TRUE(r.failures.empty()) << r.failures.front();
  EXPECT_EQ(r.counts.at("coll.rounds"), 5.0);
  EXPECT_EQ(r.counts.at("fabric.drops"), 0.0);
  EXPECT_GT(r.counts.at("fabric.pfc_pauses"), 0.0);
  EXPECT_GT(r.counts.at("qos.vl_grants.vl1"), 0.0);
  EXPECT_GT(r.model.samples, 0u);
}

TEST(Identity, TracingNeverChangesTheDigest) {
  TrialContext ctx;
  ctx.seed = 11;
  const TrialResult plain = run_trial(WorkloadId::kPaper2vm, ctx);
  SpanRecorder spans(true);
  ctx.spans = &spans;
  const TrialResult traced = run_trial(WorkloadId::kPaper2vm, ctx);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.events, traced.events);
  EXPECT_EQ(plain.allocs, traced.allocs);
  EXPECT_FALSE(spans.spans().empty());
}

TEST(Identity, SweepDigestIsTheSameAtAnyJobs) {
  TrialContext ctx;
  ctx.seed = 3;
  ctx.jobs = 1;
  const TrialResult serial = run_trial(WorkloadId::kSweepParallel, ctx);
  ctx.jobs = 3;
  const TrialResult parallel = run_trial(WorkloadId::kSweepParallel, ctx);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.allocs, parallel.allocs);
  EXPECT_EQ(serial.counts, parallel.counts);
  EXPECT_TRUE(serial.failures.empty());
}

}  // namespace
