// Unit + end-to-end coverage for resex::runner: sweep grids, seed-derived
// replication, aggregate statistics, CLI parsing, and the subsystem's core
// guarantee — a parallel run (jobs=8) produces per-trial results identical
// to a serial run (jobs=1), down to the exported JSON bytes.

#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/scenario.hpp"
#include "sim/rng.hpp"

namespace resex::runner {
namespace {

using namespace resex::sim::literals;

TEST(Sweep, CartesianGridOrderAndLabels) {
  core::ScenarioConfig base;
  Sweep sweep(base);
  sweep.axis("a", {1.0, 2.0},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  sweep.axis("b", {{"x", [](core::ScenarioConfig& c) { c.intf_depth = 7; }},
                   {"y", [](core::ScenarioConfig& c) { c.intf_depth = 9; }}});
  sweep.point("base",
              [](core::ScenarioConfig& c) { c.with_interferer = false; });

  const auto pts = sweep.points();
  ASSERT_EQ(pts.size(), 5u);
  // Row-major, later axes fastest.
  EXPECT_EQ(pts[0].label, "a=1,b=x");
  EXPECT_EQ(pts[1].label, "a=1,b=y");
  EXPECT_EQ(pts[2].label, "a=2,b=x");
  EXPECT_EQ(pts[3].label, "a=2,b=y");
  EXPECT_EQ(pts[4].label, "base");
  EXPECT_DOUBLE_EQ(pts[2].config.intf_cap, 2.0);
  EXPECT_EQ(pts[1].config.intf_depth, 9u);
  ASSERT_EQ(pts[0].params.size(), 2u);
  EXPECT_EQ(pts[0].params[0].name, "a");
  EXPECT_EQ(pts[0].params[0].value, "1");
  EXPECT_FALSE(pts[4].config.with_interferer);
}

TEST(Sweep, SingleAxisLabelsOmitTheName) {
  Sweep sweep{core::ScenarioConfig{}};
  sweep.axis("cap_pct", {100.0, 3.125},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  const auto pts = sweep.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].label, "100");
  EXPECT_EQ(pts[1].label, "3.125");
}

TEST(Rng, DeriveIsDeterministicAndSplits) {
  EXPECT_EQ(sim::derive(1, 0), sim::derive(1, 0));
  EXPECT_NE(sim::derive(1, 0), sim::derive(1, 1));
  EXPECT_NE(sim::derive(1, 0), sim::derive(2, 0));
  // Matches the Rng::stream construction (single source of truth).
  sim::Rng a = sim::Rng::stream(42, 3);
  sim::Rng b{sim::derive(42, 3)};
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Aggregate, KnownValues) {
  const auto a = aggregate({10.0, 12.0, 14.0, 16.0, 18.0});
  EXPECT_EQ(a.n, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 14.0);
  EXPECT_NEAR(a.stddev, std::sqrt(10.0), 1e-12);  // sample variance 10
  EXPECT_DOUBLE_EQ(a.p50, 14.0);
  EXPECT_NEAR(a.p99, 18.0, 0.1);
  // t(df=4, 95%) = 2.776; half-width = t * s / sqrt(n).
  EXPECT_NEAR(a.ci95, 2.776 * std::sqrt(10.0) / std::sqrt(5.0), 1e-9);
}

TEST(Aggregate, SingleSampleHasNoSpread) {
  const auto a = aggregate({7.5});
  EXPECT_EQ(a.n, 1u);
  EXPECT_DOUBLE_EQ(a.mean, 7.5);
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a.ci95, 0.0);
}

TEST(Options, ParsesTheFullSurface) {
  const char* argv[] = {"bench",  "--jobs", "4",      "--seeds",
                        "3",      "--seed", "99",     "--json",
                        "out.json", "--csv", "out.csv"};
  const auto opts = parse_options(11, argv);
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.seeds, 3u);
  ASSERT_TRUE(opts.seed.has_value());
  EXPECT_EQ(*opts.seed, 99u);
  EXPECT_EQ(opts.json_path, "out.json");
  EXPECT_EQ(opts.csv_path, "out.csv");
  EXPECT_FALSE(opts.help);
}

TEST(Options, EqualsSyntaxAndErrors) {
  const char* ok[] = {"bench", "--jobs=8", "--seeds=2"};
  const auto opts = parse_options(3, ok);
  EXPECT_EQ(opts.jobs, 8u);
  EXPECT_EQ(opts.seeds, 2u);

  const char* unknown[] = {"bench", "--frobnicate"};
  EXPECT_THROW((void)parse_options(2, unknown), std::invalid_argument);
  const char* badint[] = {"bench", "--jobs", "many"};
  EXPECT_THROW((void)parse_options(3, badint), std::invalid_argument);
  const char* zero[] = {"bench", "--seeds", "0"};
  EXPECT_THROW((void)parse_options(3, zero), std::invalid_argument);
  const char* missing[] = {"bench", "--json"};
  EXPECT_THROW((void)parse_options(2, missing), std::invalid_argument);
}

TEST(Overrides, BothScenarioTypesTakeTheSameFlags) {
  const char* argv[] = {"bench",       "--seed",     "9",   "--faults",
                        "drop=0.01",   "--buf-pkts", "32",  "--ecn-kmin",
                        "8",           "--ecn-kmax", "24",  "--qos",
                        "--routing",   "ecmp"};
  const auto opts = parse_options(14, argv);
  cluster::ClusterScenarioConfig cluster;
  apply_overrides(cluster, opts);
  EXPECT_EQ(cluster.seed, 9u);
  EXPECT_EQ(cluster.faults, "drop=0.01");
  EXPECT_EQ(cluster.congestion.buffer_pkts, 32u);
  EXPECT_EQ(cluster.congestion.ecn_kmin, 8u);
  EXPECT_TRUE(cluster.congestion.rate_control);
  EXPECT_TRUE(cluster.qos.enabled);
  EXPECT_EQ(cluster.routing.mode, routing::RouteMode::kEcmp);

  // Without the routing flag the two-node config takes the same values.
  const char* no_routing[] = {"bench",     "--seed",     "9",  "--faults",
                              "drop=0.01", "--buf-pkts", "32", "--ecn-kmin",
                              "8",         "--ecn-kmax", "24", "--qos"};
  core::ScenarioConfig two_node;
  apply_overrides(two_node, parse_options(12, no_routing));
  EXPECT_EQ(two_node.seed, 9u);
  EXPECT_EQ(two_node.faults, "drop=0.01");
  EXPECT_EQ(two_node.congestion.buffer_pkts, 32u);
  EXPECT_EQ(two_node.congestion.ecn_kmin, 8u);
  EXPECT_TRUE(two_node.congestion.rate_control);
  EXPECT_TRUE(two_node.qos.enabled);
}

TEST(Overrides, RoutingFlagsAreRejectedOnTwoNodeSweeps) {
  // The two-node testbed has no routing field: a sweep over it refuses
  // --routing/--ecmp-seed/--vl-shift before any trial runs rather than
  // silently dropping them.
  core::ScenarioConfig cfg;
  cfg.warmup = 10 * sim::kMillisecond;
  cfg.duration = 20 * sim::kMillisecond;
  Sweep sweep(cfg);
  sweep.point("only", [](core::ScenarioConfig&) {});
  const std::vector<std::vector<const char*>> argvs = {
      {"bench", "--routing", "ecmp"},
      {"bench", "--routing", "adaptive", "--ecmp-seed", "3"},
      {"bench", "--qos", "--vl-shift"}};
  for (const auto& argv : argvs) {
    const auto opts =
        parse_options(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW((void)run_sweep(sweep.points(), opts), std::invalid_argument)
        << argv[1];
  }
  // --routing static is the two-node testbed's own forwarding.
  const char* fixed[] = {"bench", "--routing", "static"};
  EXPECT_NO_THROW((void)run_sweep(sweep.points(), parse_options(3, fixed)));
}

// --- the determinism guarantee ---------------------------------------------

std::vector<Metric> tiny_metrics() {
  return {
      {"total_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].total_us; }},
      {"client_us",
       [](const core::ScenarioResult& r) {
         return r.reporting[0].client_mean_us;
       }},
      {"requests",
       [](const core::ScenarioResult& r) {
         return static_cast<double>(r.reporting[0].requests);
       }},
      {"intf_MBps",
       [](const core::ScenarioResult& r) { return r.interferer_mbps; }},
  };
}

Sweep tiny_sweep() {
  core::ScenarioConfig base;
  base.warmup = 20 * sim::kMillisecond;
  base.duration = 100 * sim::kMillisecond;
  Sweep sweep(base);
  sweep.axis("cap_pct", {100.0, 40.0},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  return sweep;
}

TEST(Determinism, ParallelRunMatchesSerialRunPerTrial) {
  RunnerOptions serial;
  serial.jobs = 1;
  serial.seeds = 3;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const auto a = run_sweep(tiny_sweep().points(), serial);
  const auto b = run_sweep(tiny_sweep().points(), parallel);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].trials.size(), 3u);
    ASSERT_EQ(b[p].trials.size(), 3u);
    for (std::size_t r = 0; r < a[p].trials.size(); ++r) {
      const auto& ta = a[p].trials[r];
      const auto& tb = b[p].trials[r];
      EXPECT_EQ(ta.index, tb.index);
      EXPECT_EQ(ta.seed, tb.seed);
      ASSERT_EQ(ta.scenario.reporting.size(), tb.scenario.reporting.size());
      for (std::size_t v = 0; v < ta.scenario.reporting.size(); ++v) {
        const auto& va = ta.scenario.reporting[v];
        const auto& vb = tb.scenario.reporting[v];
        EXPECT_EQ(va.requests, vb.requests);
        // Bitwise equality, not tolerance: the guarantee is identity.
        EXPECT_EQ(va.total_us, vb.total_us);
        EXPECT_EQ(va.client_mean_us, vb.client_mean_us);
        EXPECT_EQ(va.client_p99_us, vb.client_p99_us);
        EXPECT_EQ(va.ptime_us, vb.ptime_us);
        EXPECT_EQ(va.wtime_us, vb.wtime_us);
        EXPECT_EQ(va.ctime_us, vb.ctime_us);
        EXPECT_EQ(va.client_latency_us.values(),
                  vb.client_latency_us.values());
      }
      EXPECT_EQ(ta.scenario.interferer_mbps, tb.scenario.interferer_mbps);
    }
  }

  // ...and so do the exported bytes.
  const ResultSink sink(tiny_metrics());
  std::ostringstream ja, jb;
  sink.write_json(ja, a);
  sink.write_json(jb, b);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(Replicator, ReplicatesWithDerivedSeeds) {
  ThreadPool pool(4);
  core::ScenarioConfig base;
  base.warmup = 20 * sim::kMillisecond;
  base.duration = 60 * sim::kMillisecond;
  base.seed = 7;
  SweepPoint point;
  point.label = "p";
  point.config = base;

  const auto outcomes = Replicator(pool, 3).run({point});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].trials.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(outcomes[0].trials[r].replicate, r);
    EXPECT_EQ(outcomes[0].trials[r].seed, sim::derive(7, r));
  }
  // Different seeds -> genuinely different samples (replication is real).
  EXPECT_NE(outcomes[0].trials[0].scenario.reporting[0].client_mean_us,
            outcomes[0].trials[1].scenario.reporting[0].client_mean_us);
}

TEST(Replicator, GenericPointsRunAndAggregate) {
  ThreadPool pool(4);
  GenericPoint p;
  p.label = "g";
  p.seed = 5;
  p.run = [](std::uint64_t seed) {
    return std::vector<double>{static_cast<double>(seed % 1000), 1.0};
  };
  const auto outcomes = Replicator(pool, 4).run_generic({p});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].trial_values.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(outcomes[0].seeds[r], sim::derive(5, r));
    EXPECT_DOUBLE_EQ(outcomes[0].trial_values[r][0],
                     static_cast<double>(sim::derive(5, r) % 1000));
  }
  const auto sink = ResultSink::named({"m0", "m1"});
  const auto aggs = sink.aggregates(outcomes);
  ASSERT_EQ(aggs.size(), 1u);
  ASSERT_EQ(aggs[0].size(), 2u);
  EXPECT_EQ(aggs[0][1].n, 4u);
  EXPECT_DOUBLE_EQ(aggs[0][1].mean, 1.0);
  EXPECT_DOUBLE_EQ(aggs[0][1].ci95, 0.0);  // zero spread
}

TEST(ResultSink, TableShapesFollowReplication) {
  const auto sink = ResultSink::named({"m"});
  GenericOutcome one;
  one.label = "a";
  one.seeds = {1};
  one.trial_values = {{3.0}};
  const auto t1 = sink.table({one});
  EXPECT_EQ(t1.columns(), (std::vector<std::string>{"point", "m"}));

  GenericOutcome many = one;
  many.seeds = {1, 2};
  many.trial_values = {{3.0}, {5.0}};
  const auto t2 = sink.table({many});
  EXPECT_EQ(t2.columns(), (std::vector<std::string>{"point", "m", "m_ci95"}));
  ASSERT_EQ(t2.row_count(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(t2.row(0)[1]), 4.0);
}

TEST(Options, ParsesObservabilityFlags) {
  const char* argv[] = {"bench", "--trace", "t.json", "--metrics-json",
                        "m.json"};
  const auto opts = parse_options(5, argv);
  EXPECT_EQ(opts.trace_path, "t.json");
  EXPECT_EQ(opts.metrics_path, "m.json");
  const char* missing[] = {"bench", "--trace"};
  EXPECT_THROW((void)parse_options(2, missing), std::invalid_argument);
}

TEST(TrialTracePath, DerivesPerTrialNames) {
  // Trial (0,0) gets the base path verbatim, so the documented
  // "--trace out.json" file always exists.
  EXPECT_EQ(trial_trace_path("out.json", 0, 0), "out.json");
  EXPECT_EQ(trial_trace_path("out.json", 1, 0), "out.p1r0.json");
  EXPECT_EQ(trial_trace_path("out.json", 0, 2), "out.p0r2.json");
  EXPECT_EQ(trial_trace_path("t.jsonl", 3, 4), "t.p3r4.jsonl");
  // No extension: append. A dot in a parent directory is not an extension.
  EXPECT_EQ(trial_trace_path("trace", 1, 1), "trace.p1r1");
  EXPECT_EQ(trial_trace_path("a.dir/trace", 1, 1), "a.dir/trace.p1r1");
  // Empty base means tracing is off for every trial.
  EXPECT_EQ(trial_trace_path("", 1, 1), "");
}

TEST(Determinism, TraceFilesIdenticalAcrossJobCounts) {
  // The whole point of per-trial trace files: `--trace` output must be
  // byte-identical no matter how many workers ran the sweep.
  auto run_with = [](std::size_t jobs, const std::string& base) {
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.seeds = 2;
    opts.trace_path = base;
    core::ScenarioConfig cfg;
    cfg.warmup = 20 * sim::kMillisecond;
    cfg.duration = 60 * sim::kMillisecond;
    Sweep sweep(cfg);
    sweep.axis("cap_pct", {100.0, 40.0},
               [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
    (void)run_sweep(sweep.points(), opts);
  };
  const std::string dir = ::testing::TempDir();
  run_with(1, dir + "serial.json");
  run_with(8, dir + "parallel.json");

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  for (const char* suffix : {"", ".p0r1", ".p1r0", ".p1r1"}) {
    const std::string serial =
        dir + "serial" + (*suffix != '\0' ? std::string(suffix) : "") +
        ".json";
    const std::string parallel =
        dir + "parallel" + (*suffix != '\0' ? std::string(suffix) : "") +
        ".json";
    const std::string a = slurp(serial);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(parallel)) << suffix;
    std::remove(serial.c_str());
    std::remove(parallel.c_str());
  }
}

TEST(Metrics, SnapshotCollectedPerTrialAndExported) {
  RunnerOptions opts;
  opts.jobs = 2;
  opts.seeds = 1;
  opts.metrics_path = "unused";  // collection is keyed off this being set
  core::ScenarioConfig cfg;
  cfg.warmup = 20 * sim::kMillisecond;
  cfg.duration = 60 * sim::kMillisecond;
  Sweep sweep(cfg);
  sweep.point("only", [](core::ScenarioConfig&) {});
  const auto outcomes = run_sweep(sweep.points(), opts);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].trials.size(), 1u);
  const auto& snap = outcomes[0].trials[0].scenario.metrics;
  EXPECT_FALSE(snap.samples.empty());
  auto has = [&snap](const std::string& name) {
    for (const auto& s : snap.samples) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("fabric.transfers"));
  EXPECT_TRUE(has("fabric.wire_latency_ns"));

  std::ostringstream os;
  write_metrics_json(os, outcomes);
  EXPECT_NE(os.str().find("\"schema\":\"resex.metrics/v1\""),
            std::string::npos);
  EXPECT_NE(os.str().find("fabric.transfers"), std::string::npos);
}

}  // namespace
}  // namespace resex::runner
