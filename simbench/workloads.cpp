#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "alloc_count.hpp"
#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/service.hpp"
#include "cluster/topology.hpp"
#include "collective/collective.hpp"
#include "core/cluster_exchange.hpp"
#include "core/policies.hpp"
#include "digest.hpp"
#include "ibmon/ibmon.hpp"
#include "qos/config.hpp"
#include "runner/runner.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "stats.hpp"

namespace simbench {

using namespace resex;
using namespace resex::sim::literals;

namespace {

// Workload sizes. They set how much host time one trial takes, so a run of
// a few seconds holds several trials and reports their median.
constexpr sim::SimDuration kPaperWarmup = 100_ms;
constexpr sim::SimDuration kPaperDuration = 900_ms;
constexpr sim::SimDuration kFattreeWarmup = 100_ms;
constexpr sim::SimDuration kFattreeDuration = 100_ms;
constexpr std::uint32_t kLanesRanks = 8;
constexpr std::uint64_t kLanesPayload = 4u << 20;
constexpr std::uint32_t kLanesChunk = 256 * 1024;
constexpr std::uint32_t kLanesRounds = 5;
constexpr std::uint32_t kLanesLeafWidth = 5;  // 4 ranks + 1 victim end
constexpr std::uint32_t kLanesBufPkts = 64;
constexpr sim::SimDuration kLanesCap = 2_s;  // deadlock watchdog (sim time)
constexpr sim::SimDuration kLanesDrain = 2_ms;
constexpr sim::SimDuration kSweepWarmup = 20_ms;
// sweep_parallel's trial lengths (ms after warmup), smallest first as the
// figure benches list them: the longest starts last and finishes alone.
constexpr std::uint32_t kSweepDurationsMs[] = {20, 30, 40, 60, 80, 120, 160, 320};

// The timed run advances the simulation in slices of this much simulated
// time: the host watchdog is checked between slices and a traced run puts
// one span on each. Slicing never changes the simulation (run_until only
// moves the clock when no event is due), which the digests prove.
constexpr sim::SimDuration kSlice = 10_ms;
// Host seconds one timed run may take before it is abandoned as hung.
constexpr double kWatchdogS = 120.0;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the calling thread has run. One-thread host timings use it
/// rather than wall time, so time spent descheduled (while other processes
/// or other guests of a shared host hold the CPU) drops out.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Advance `sim` to `end` in slices, accumulating host CPU time, events and
/// allocations of the timed run into `out`.
void timed_run_until(sim::Simulation& sim, sim::SimTime end,
                     const TrialContext& ctx, int parent, TrialResult& out) {
  const sim::SimTime start = sim.now();
  const std::uint64_t ev0 = sim.events_processed();
  const auto t0 = Clock::now();
  while (sim.now() < end) {
    const sim::SimTime next = std::min<sim::SimTime>(end, sim.now() + kSlice);
    const int span = ctx.spans != nullptr
                         ? ctx.spans->begin("run.slice", parent, ctx.trial)
                         : -1;
    const std::uint64_t a0 = thread_allocs();
    const double c0 = thread_cpu_s();
    sim.run_until(next);
    out.run_s += thread_cpu_s() - c0;
    out.allocs += thread_allocs() - a0;
    if (ctx.spans != nullptr) ctx.spans->end(span);
    if (seconds_since(t0) > kWatchdogS) {
      throw std::runtime_error("host watchdog: timed run exceeded " +
                               std::to_string(kWatchdogS) + " s");
    }
  }
  out.busy_s = out.run_s;
  out.events += sim.events_processed() - ev0;
  out.sim_s += sim::to_sec(sim.now() - start);
}

double metric(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& s : snap.samples) {
    if (s.name == name) {
      return s.kind == obs::MetricKind::kHistogram
                 ? static_cast<double>(s.count)
                 : s.value;
    }
  }
  return 0.0;
}

template <typename Fn>
void for_each_channel(fabric::Fabric& fab, Fn&& fn) {
  for (std::size_t i = 0; i < fab.hca_count(); ++i) {
    fn(fab.hca(i).uplink());
    fn(fab.hca(i).downlink());
  }
  fab.for_each_trunk(
      [&fn](std::uint32_t, std::uint32_t, fabric::Channel& ch) { fn(ch); });
}

/// Wire counters of every channel, in a fixed enumeration order.
void digest_fabric(Digest& d, fabric::Fabric& fab) {
  for_each_channel(fab, [&d](fabric::Channel& ch) {
    d.add(ch.name());
    d.add(ch.packets_sent());
    d.add(ch.bytes_sent());
    d.add(static_cast<std::uint64_t>(ch.busy_time()));
    d.add(ch.packets_dropped());
  });
}

/// Per-layer counters of one finished simulation, read from public getters
/// and the metrics registry. The cluster and collective counts start at zero
/// and are filled in by the workloads that use those layers.
void layer_counts(fabric::Fabric& fab, sim::Simulation& sim,
                   std::map<std::string, double>& c) {
  const double horizon = static_cast<double>(sim.now());
  double traversals = 0.0;
  double max_util = 0.0;
  double drops = 0.0;
  double pauses = 0.0;
  double grants0 = 0.0;
  double grants1 = 0.0;
  double paused_ns = 0.0;
  const bool qos = fab.config().qos_enabled;
  for_each_channel(fab, [&](fabric::Channel& ch) {
    traversals += static_cast<double>(ch.packets_sent());
    if (horizon > 0.0) {
      max_util =
          std::max(max_util, static_cast<double>(ch.busy_time()) / horizon);
    }
    drops += static_cast<double>(ch.packets_dropped());
    pauses += static_cast<double>(ch.pauses_sent());
    grants0 += static_cast<double>(ch.vl_grants(0));
    grants1 += static_cast<double>(ch.vl_grants(1));
    if (qos) {
      for (std::uint8_t vl = 0; vl < fab.config().num_vls; ++vl) {
        paused_ns += static_cast<double>(ch.vl_paused_time(vl));
      }
    } else {
      paused_ns += static_cast<double>(ch.paused_time());
    }
  });
  const auto snap = sim.metrics().snapshot(sim.now());
  c["fabric.traversals"] = traversals;
  c["fabric.max_link_util"] = max_util;
  c["fabric.drops"] = drops;
  c["fabric.pfc_pauses"] = pauses;
  c["fabric.retransmits"] = metric(snap, "fabric.retransmits");
  c["fabric.switch_hops"] = metric(snap, "fabric.switch_hops");
  c["hca.posts"] = metric(snap, "fabric.transfers");
  c["qos.vl_grants.vl0"] = grants0;
  c["qos.vl_grants.vl1"] = grants1;
  c["qos.vl_paused_ms"] = paused_ns / 1e6;
  c["hv.cap_changes"] = metric(snap, "hv.cap_changes");
  c["core.intervals"] = metric(snap, "core.intervals");
  c["core.cap_adjustments"] = metric(snap, "core.cap_adjustments");
  c["coll.steps"] = metric(snap, "coll_steps");
  c["coll.rounds"] = 0.0;
  c["coll.round_ms"] = 0.0;
  c["cluster.migrations"] = 0.0;
  c["cluster.migration_mb"] = 0.0;
  c["cluster.blackout_ms"] = 0.0;
  c["ibmon.samples"] = 0.0;
}

core::VmSummary summarize_pair(const std::string& name,
                               benchex::BenchPair& pair) {
  core::VmSummary s;
  s.name = name;
  const auto& sm = pair.server().metrics();
  const auto& cm = pair.client().metrics();
  s.requests = sm.requests;
  s.client_mean_us = cm.latency_us.mean();
  s.client_stddev_us = cm.latency_us.stddev();
  s.client_p99_us = cm.latency_us.percentile(99.0);
  s.ptime_us = sm.ptime_us.mean();
  s.ctime_us = sm.ctime_us.mean();
  s.wtime_us = sm.wtime_us.mean();
  s.ptime_sd_us = sm.ptime_us.stddev();
  s.ctime_sd_us = sm.ctime_us.stddev();
  s.wtime_sd_us = sm.wtime_us.stddev();
  s.total_us = sm.total_us.mean();
  s.client_latency_us = cm.latency_us;
  return s;
}

void digest_samples(Digest& d, const std::vector<double>& values) {
  d.add(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) d.add(v);
}

void check(TrialResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

ModelMetrics model_of(const std::vector<double>& samples, double sla_limit_us,
                      double bulk_mbps) {
  ModelMetrics m;
  m.p50_us = percentile(samples, 50.0);
  m.p99_us = percentile(samples, 99.0);
  m.samples = samples.size();
  m.viol_pct = pct_above(samples, sla_limit_us);
  m.bulk_mbps = bulk_mbps;
  return m;
}

// --- paper_2vm --------------------------------------------------------------

TrialResult run_paper_2vm(const TrialContext& ctx) {
  const core::ScenarioConfig cfg = paper_2vm_config(ctx.seed);
  const double c0 = thread_cpu_s();
  Calibration cal;
  {
    ScopedSpan span(*ctx.spans, "setup.calibrate", -1, ctx.trial);
    cal = calibrate_paper_2vm(cfg);
  }
  const double calibrate_s = thread_cpu_s() - c0;
  Paper2vmRun run = run_paper_2vm_assembly(
      cfg, cal.server_total_us,
      cal.client_mean_us * (1.0 + cfg.sla_threshold_pct / 100.0), ctx);
  run.trial.calibrate_s = calibrate_s;
  run.trial.setup_s += calibrate_s;
  return std::move(run.trial);
}

// --- fattree_scaleout ----------------------------------------------------------

TrialResult run_fattree(const TrialContext& ctx) {
  FattreeRun run = run_fattree_assembly(fattree_config(ctx.seed), ctx);
  return std::move(run.trial);
}

// --- lanes_allreduce -----------------------------------------------------------

cluster::ClusterConfig lanes_cluster_config() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 2 * kLanesLeafWidth;
  cfg.pcpus_per_node = 4;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = kLanesLeafWidth;
  cfg.spines = 2;
  cfg.trunk_bandwidth_scale = 1.0;
  cfg.fabric.port_buffer_pkts = kLanesBufPkts;
  cfg.fabric.pfc_enabled = true;
  qos::QosConfig q;
  q.enabled = true;  // default two-class map: RPC on SL0, bulk on SL1
  q.apply(cfg.fabric);
  cfg.fabric.routing.mode = routing::RouteMode::kEcmp;
  // The ECMP hash seed is fabric configuration, the same for every seed: it
  // decides which spine each ring edge takes, and across hash seeds the
  // all-reduce bandwidth ranged 174-194 MB/s, too wide for the benchmark's
  // bounds between runs of different seeds. It is the default seed's hash
  // seed; the victim's arrivals still vary with the run's seed.
  cfg.fabric.routing.ecmp_seed = sim::derive(1, 0xEC);
  cfg.fabric.routing.vl_shift = true;
  cfg.fabric.reserve_shift_lane();
  return cfg;
}

/// Ranks striped across the two leaves so every ring edge crosses a spine.
std::uint32_t lanes_rank_node(std::uint32_t r) {
  return (r % 2) * kLanesLeafWidth + r / 2;
}
// The victim's server sits on the last node of leaf 0. Its client sits on
// the last node of leaf 1 (lanes_allreduce: the victim crosses the trunks),
// or on rank 0's node (lanes_allreduce_leaf: the victim stays in leaf 0 and
// shares only that node's host links with the bulk class).
constexpr std::uint32_t kVictimServer = kLanesLeafWidth - 1;
std::uint32_t victim_client(bool across) {
  return across ? 2 * kLanesLeafWidth - 1 : lanes_rank_node(0);
}

benchex::BenchExConfig victim_config(std::uint64_t seed) {
  auto cfg = core::reporting_config(64 * 1024, 2000.0, sim::derive(seed, 0));
  cfg.metrics_start = 2_ms;
  return cfg;
}

struct LanesState {
  sim::Simulation* sim = nullptr;
  cluster::Cluster* cluster = nullptr;
  cluster::Service* victim = nullptr;
  collective::CollectiveConfig coll;
  std::unique_ptr<collective::CollectiveGroup> group;
  std::vector<double> round_ms;
  std::uint32_t rounds_ok = 0;
  bool sums_exact = true;
  std::string abort_reason;  // empty unless a round aborted
  bool done = false;
  sim::SimTime stop_at = 0;
  std::size_t victim_samples = 0;
};

/// Back-to-back all-reduce rounds; checks every round's elementwise sums,
/// then stops the victim's feed and lets in-flight requests drain.
sim::Task drive_rounds(LanesState& st) {
  const std::uint32_t n = st.coll.ranks;
  // Rank r contributes r + 1 everywhere, so every element sums to this
  // exactly (small integers are exact in double arithmetic).
  const double expected = static_cast<double>(n) * (n + 1) / 2.0;
  for (std::uint32_t round = 0; round < kLanesRounds; ++round) {
    std::vector<collective::RankHome> homes(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t node = lanes_rank_node(r);
      homes[r] = {&st.cluster->node(node), &st.cluster->hca(node)};
    }
    st.group = std::make_unique<collective::CollectiveGroup>(
        *st.sim, std::move(homes), st.coll);
    st.group->start();
    if (!st.group->done()) co_await st.group->done_trigger().wait();
    const auto& res = st.group->result();
    if (!res.ok) {
      st.abort_reason = "all-reduce round " + std::to_string(round) +
                        " aborted at t=" + std::to_string(st.sim->now()) +
                        " ns: rank " + std::to_string(res.failed_rank) +
                        " saw " + fabric::to_string(res.failure);
      break;
    }
    st.round_ms.push_back(
        static_cast<double>(res.finished_at - res.started_at) / 1e6);
    ++st.rounds_ok;
    for (std::uint32_t r = 0; r < n && st.sums_exact; ++r) {
      for (const double v : st.group->rank_data(r)) {
        if (v != expected) {
          st.sums_exact = false;
          break;
        }
      }
    }
    // Free the round's PCPUs for the next round's domains, as
    // collective::CollectiveService does between rounds.
    for (std::uint32_t r = 0; r < n; ++r) {
      st.cluster->node(lanes_rank_node(r))
          .retire_domain(st.group->rank_domain(r).id());
    }
  }
  st.victim->suspend_client();
  co_await st.sim->delay(kLanesDrain);
  st.victim_samples = st.victim->client_metrics().latency_us.count();
  st.stop_at = st.sim->now();
  st.done = true;
}

/// The victim alone on the same fabric: its solo client mean is the SLA
/// baseline, as run_cluster_scenario calibrates its services.
double calibrate_victim(std::uint64_t seed, bool across) {
  cluster::Cluster cluster(lanes_cluster_config());
  cluster::Service victim(cluster.hca(kVictimServer),
                          cluster.hca(victim_client(across)), victim_config(seed),
                          "victim", /*with_agent=*/false);
  victim.start();
  cluster.sim().run_until(50_ms);
  return victim.client_metrics().latency_us.mean();
}

TrialResult run_lanes(const TrialContext& ctx, bool victim_across) {
  TrialResult out;
  const double t0 = thread_cpu_s();
  const int setup_span = ctx.spans->begin("setup", -1, ctx.trial);
  double victim_mean_us = 0.0;
  {
    ScopedSpan span(*ctx.spans, "setup.calibrate", setup_span, ctx.trial);
    victim_mean_us = calibrate_victim(ctx.seed, victim_across);
  }
  out.calibrate_s = thread_cpu_s() - t0;
  std::unique_ptr<cluster::Cluster> cluster;
  {
    ScopedSpan span(*ctx.spans, "setup.construct", setup_span, ctx.trial);
    cluster = std::make_unique<cluster::Cluster>(lanes_cluster_config());
  }
  auto& sim = cluster->sim();
  LanesState st;
  std::unique_ptr<cluster::Service> victim;
  {
    ScopedSpan span(*ctx.spans, "setup.deploy", setup_span, ctx.trial);
    victim = std::make_unique<cluster::Service>(
        cluster->hca(kVictimServer), cluster->hca(victim_client(victim_across)),
        victim_config(ctx.seed), "victim", /*with_agent=*/false);
    st.sim = &sim;
    st.cluster = cluster.get();
    st.victim = victim.get();
    st.coll.ranks = kLanesRanks;
    st.coll.payload_bytes = kLanesPayload;
    st.coll.chunk_bytes = kLanesChunk;
    st.coll.algorithm = collective::Algorithm::kRingAllReduce;
    victim->start();
    sim.spawn(drive_rounds(st));
  }
  ctx.spans->end(setup_span);
  out.setup_s = thread_cpu_s() - t0;

  {
    ScopedSpan span(*ctx.spans, "run", -1, ctx.trial);
    // Run in slices until the rounds are done; the cap turns a fabric
    // deadlock into a reported failure instead of a hang.
    while (!st.done && sim.now() < kLanesCap) {
      timed_run_until(sim, sim.now() + kSlice, ctx, span.id(), out);
    }
  }

  {
    ScopedSpan span(*ctx.spans, "collect", -1, ctx.trial);
    const auto& all = victim->client_metrics().latency_us.values();
    const std::vector<double> samples(
        all.begin(),
        all.begin() + static_cast<std::ptrdiff_t>(
                          std::min(st.victim_samples, all.size())));
    double round_s = 0.0;
    for (const double ms : st.round_ms) round_s += ms / 1e3;
    const double bulk =
        round_s > 0.0 ? static_cast<double>(st.rounds_ok) *
                            static_cast<double>(kLanesPayload) / round_s / 1e6
                      : 0.0;
    out.model = model_of(samples, victim_mean_us * 1.15, bulk);
    layer_counts(cluster->fabric(), sim, out.counts);
    out.counts["benchex.requests"] =
        static_cast<double>(victim->server_metrics().requests);
    out.counts["coll.rounds"] = st.rounds_ok;
    out.counts["coll.round_ms"] = median(st.round_ms);

    check(out, st.done, "all-reduce rounds did not finish within the cap");
    check(out, st.abort_reason.empty(), st.abort_reason);
    check(out, st.rounds_ok == kLanesRounds, "rounds completed != rounds run");
    check(out, st.sums_exact, "an all-reduce sum is not exact");
    check(out, out.counts["fabric.drops"] == 0.0, "packets dropped under PFC");
    const auto& cm = victim->client_metrics();
    check(out, cm.received <= cm.sent, "victim completed more than it sent");

    Digest d;
    d.add(static_cast<std::uint64_t>(st.rounds_ok));
    for (const double ms : st.round_ms) d.add(ms);
    d.add(static_cast<std::uint64_t>(st.stop_at));
    digest_samples(d, samples);
    d.add(victim->server_metrics().requests);
    d.add(victim->server_metrics().checksum);
    digest_fabric(d, cluster->fabric());
    out.digest = d.hex();
  }
  return out;
}

// --- sweep_parallel ----------------------------------------------------------

struct SweepSlot {
  Paper2vmRun run;
  double start_s = 0.0;  // host, recorder clock
  double end_s = 0.0;
  std::uint64_t allocs = 0;
  std::thread::id worker;
};

TrialResult run_sweep(const TrialContext& ctx) {
  TrialResult out;
  out.jobs = ctx.jobs;
  const double t0 = thread_cpu_s();
  // Every trial runs the same seed's scenario for a different length, so one
  // calibration serves them all.
  const std::uint64_t trial_seed = sim::derive(ctx.seed, 0);
  Calibration cal;
  {
    ScopedSpan span(*ctx.spans, "setup.calibrate", -1, ctx.trial);
    cal = calibrate_paper_2vm(paper_2vm_config(trial_seed));
  }
  out.calibrate_s = thread_cpu_s() - t0;
  const double sla_limit = cal.client_mean_us * 1.15;
  const auto& durations = kSweepDurationsMs;
  std::vector<SweepSlot> slots(std::size(durations));
  std::vector<runner::GenericPoint> points;
  for (std::size_t i = 0; i < std::size(durations); ++i) {
    runner::GenericPoint p;
    p.label = std::to_string(durations[i]) + "ms";
    p.seed = ctx.seed;
    p.run = [&slots, &ctx, &cal, sla_limit, i,
             ms = durations[i]](std::uint64_t seed) -> std::vector<double> {
      SweepSlot& slot = slots[i];
      slot.worker = std::this_thread::get_id();
      slot.start_s = ctx.spans->now_s();
      const std::uint64_t a0 = thread_allocs();
      core::ScenarioConfig cfg = paper_2vm_config(seed);
      cfg.warmup = kSweepWarmup;
      cfg.duration = static_cast<sim::SimDuration>(ms) * sim::kMillisecond;
      TrialContext inner = ctx;
      inner.spans = nullptr;
      slot.run = run_paper_2vm_assembly(cfg, cal.server_total_us, sla_limit,
                                        inner);
      slot.allocs = thread_allocs() - a0;
      slot.end_s = ctx.spans->now_s();
      return {};
    };
    points.push_back(std::move(p));
  }
  out.setup_s = thread_cpu_s() - t0;

  runner::RunnerOptions opts;
  opts.jobs = ctx.jobs;
  opts.seeds = 1;
  const int run_span = ctx.spans->begin("run", -1, ctx.trial);
  const double sweep_start = ctx.spans->now_s();
  const auto r0 = Clock::now();
  (void)runner::run_generic(std::move(points), opts);
  out.run_s = seconds_since(r0);
  const double sweep_end = ctx.spans->now_s();
  ctx.spans->end(run_span);

  ScopedSpan collect_span(*ctx.spans, "collect", -1, ctx.trial);
  // Workers are numbered in the order they first started a trial.
  std::vector<std::thread::id> workers;
  std::vector<double> last_end;
  std::vector<double> pooled;
  double bulk_bytes = 0.0;
  Digest d;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const SweepSlot& s = slots[i];
    auto it = std::find(workers.begin(), workers.end(), s.worker);
    if (it == workers.end()) {
      workers.push_back(s.worker);
      last_end.push_back(0.0);
      it = workers.end() - 1;
    }
    const auto w = static_cast<std::size_t>(it - workers.begin());
    last_end[w] = std::max(last_end[w], s.end_s);
    ctx.spans->add({"sweep.trial", s.start_s, s.end_s, run_span,
                    static_cast<int>(i), static_cast<int>(w)});
    const TrialResult& t = s.run.trial;
    out.trial_host_s += s.end_s - s.start_s;
    out.sim_s += t.sim_s;
    out.busy_s += t.run_s;
    out.events += t.events;
    out.allocs += s.allocs;
    for (const auto& [k, v] : t.counts) {
      if (k == "fabric.max_link_util") {
        out.counts[k] = std::max(out.counts[k], v);
      } else {
        out.counts[k] += v;
      }
    }
    for (const std::string& f : t.failures) {
      out.failures.push_back(std::to_string(durations[i]) + "ms trial: " + f);
    }
    const auto& v = s.run.scenario.reporting.at(0).client_latency_us.values();
    pooled.insert(pooled.end(), v.begin(), v.end());
    bulk_bytes += t.model.bulk_mbps * 1e6 * t.sim_s;
    d.add(t.digest);
  }
  for (const double e : last_end) out.tail_idle_s += sweep_end - e;
  // Workers that never got a trial idled for the whole sweep.
  if (workers.size() < ctx.jobs) {
    out.tail_idle_s += static_cast<double>(ctx.jobs - workers.size()) *
                       (sweep_end - sweep_start);
  }
  out.model = model_of(pooled, sla_limit,
                       out.sim_s > 0.0 ? bulk_bytes / out.sim_s / 1e6 : 0.0);
  out.digest = d.hex();
  return out;
}

}  // namespace

// --- public -----------------------------------------------------------------

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId w : all_workloads()) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(WorkloadId w) noexcept {
  switch (w) {
    case WorkloadId::kPaper2vm: return "paper_2vm";
    case WorkloadId::kFattreeScaleout: return "fattree_scaleout";
    case WorkloadId::kLanesAllreduce: return "lanes_allreduce";
    case WorkloadId::kLanesAllreduceLeaf: return "lanes_allreduce_leaf";
    case WorkloadId::kSweepParallel: return "sweep_parallel";
  }
  return "unknown";
}

std::vector<WorkloadId> all_workloads() {
  return {WorkloadId::kPaper2vm, WorkloadId::kFattreeScaleout,
          WorkloadId::kLanesAllreduce, WorkloadId::kLanesAllreduceLeaf,
          WorkloadId::kSweepParallel};
}

core::ScenarioConfig paper_2vm_config(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.policy = core::PolicyKind::kFreeMarket;
  cfg.warmup = kPaperWarmup;
  cfg.duration = kPaperDuration;
  cfg.seed = seed;
  return cfg;
}

Calibration calibrate_paper_2vm(const core::ScenarioConfig& cfg) {
  // core::measure_base_total_us's probe: same reporting workload, no
  // interferer, no policy, 300 ms.
  core::ScenarioConfig solo = cfg;
  solo.with_interferer = false;
  solo.policy = core::PolicyKind::kNone;
  solo.duration = 300_ms;
  TrialContext quiet;
  quiet.seed = cfg.seed;
  const auto run = run_paper_2vm_assembly(solo, 0.0, 0.0, quiet);
  return {run.scenario.reporting.at(0).client_mean_us,
          run.scenario.reporting.at(0).total_us};
}

Paper2vmRun run_paper_2vm_assembly(const core::ScenarioConfig& cfg,
                                   double baseline_total_us,
                                   double sla_limit_us,
                                   const TrialContext& ctx) {
  if (cfg.policy != core::PolicyKind::kNone &&
      cfg.policy != core::PolicyKind::kFreeMarket) {
    throw std::invalid_argument("paper_2vm assembly: FreeMarket or no policy");
  }
  SpanRecorder off(false);
  SpanRecorder& spans = ctx.spans != nullptr ? *ctx.spans : off;
  Paper2vmRun out;
  TrialResult& tr = out.trial;
  core::ScenarioResult& result = out.scenario;

  // Setup, in core::run_scenario's order (QP numbers and seeds depend on it).
  const double t0 = thread_cpu_s();
  const int setup_span = spans.begin("setup", -1, ctx.trial);
  std::unique_ptr<core::Testbed> tb;
  {
    ScopedSpan span(spans, "setup.construct", setup_span, ctx.trial);
    core::TestbedConfig tb_cfg;
    tb_cfg.scheduler.subwindows = cfg.sched_subwindows;
    cfg.congestion.apply(tb_cfg.fabric);
    cfg.qos.apply(tb_cfg.fabric);
    tb = std::make_unique<core::Testbed>(tb_cfg);
  }
  std::vector<benchex::BenchPair*> reporting;
  benchex::BenchPair* interferer = nullptr;
  {
    ScopedSpan span(spans, "setup.deploy", setup_span, ctx.trial);
    for (std::uint32_t i = 0; i < cfg.reporting_count; ++i) {
      auto rc = core::reporting_config(cfg.reporting_buffer, cfg.reporting_rate,
                                       sim::derive(cfg.seed, i));
      rc.arrivals.kind = cfg.reporting_arrivals;
      rc.metrics_start = cfg.warmup;
      reporting.push_back(
          &tb->deploy_pair(rc, "rep" + std::to_string(i), /*with_agent=*/true));
    }
    result.reporting_vm_id = reporting.front()->server_domain().id();
    if (cfg.with_interferer) {
      auto ic = core::interferer_config(cfg.intf_buffer, cfg.intf_depth,
                                        sim::derive(cfg.seed, 100));
      if (cfg.intf_rate > 0.0) {
        ic.mode = benchex::LoadMode::kOpenLoop;
        ic.arrivals = {.kind = trace::ArrivalKind::kFixedRate,
                       .rate_per_sec = cfg.intf_rate};
        ic.queue_depth = 0;
      }
      ic.think_time = static_cast<sim::SimDuration>(cfg.intf_think_us *
                                                    sim::kMicrosecond);
      ic.metrics_start = cfg.warmup;
      interferer = &tb->deploy_pair(ic, "intf", /*with_agent=*/true);
      result.interferer_vm_id = interferer->server_domain().id();
      if (cfg.intf_cap < 100.0) {
        tb->node_a().scheduler().set_cap(interferer->server_domain().vcpu(),
                                         cfg.intf_cap);
      }
    }
  }
  std::unique_ptr<ibmon::IbMon> ibmon;
  std::unique_ptr<core::ResExController> controller;
  if (cfg.policy != core::PolicyKind::kNone) {
    ScopedSpan span(spans, "setup.controller", setup_span, ctx.trial);
    result.baseline_mean_us = baseline_total_us;
    ibmon::IbMonConfig mon_cfg{.sample_period = cfg.ibmon_period,
                               .mtu_bytes = tb->fabric().config().mtu_bytes};
    ibmon = std::make_unique<ibmon::IbMon>(tb->sim(), mon_cfg);
    auto watch = [&](hv::Domain& dom) {
      dom.memory().set_foreign_mappable(true);
      ibmon->watch_domain(dom, tb->hca_a().domain_cqs(dom.id()));
    };
    for (auto* pair : reporting) watch(pair->server_domain());
    if (interferer != nullptr) watch(interferer->server_domain());
    ibmon->start();
    core::ControllerConfig ctrl_cfg;
    ctrl_cfg.resos = cfg.resos;
    ctrl_cfg.sla.threshold_pct = cfg.sla_threshold_pct;
    controller = std::make_unique<core::ResExController>(
        tb->node_a(), *ibmon, std::make_unique<core::FreeMarketPolicy>(),
        ctrl_cfg);
    for (auto* pair : reporting) {
      controller->monitor(pair->server_domain(), &pair->agent(),
                          cfg.reporting_weight, result.baseline_mean_us);
    }
    if (interferer != nullptr) {
      controller->monitor(interferer->server_domain(), nullptr,
                          cfg.intf_weight);
    }
    controller->start();
  }
  spans.end(setup_span);
  tr.setup_s = thread_cpu_s() - t0;

  {
    ScopedSpan span(spans, "run", -1, ctx.trial);
    timed_run_until(tb->sim(), cfg.warmup + cfg.duration, ctx, span.id(), tr);
  }

  {
    ScopedSpan span(spans, "collect", -1, ctx.trial);
    for (std::size_t i = 0; i < reporting.size(); ++i) {
      result.reporting.push_back(
          summarize_pair("rep" + std::to_string(i), *reporting[i]));
    }
    const double total_s = sim::to_sec(cfg.warmup + cfg.duration);
    double bulk = 0.0;
    if (interferer != nullptr) {
      result.interferer = summarize_pair("intf", *interferer);
      result.interferer_mbps =
          static_cast<double>(
              interferer->server().endpoint().qp->bytes_sent()) /
          total_s / 1e6;
      bulk = static_cast<double>(interferer->server().metrics().requests) *
             cfg.intf_buffer / total_s / 1e6;
    }
    if (controller != nullptr) result.timeline = controller->timeline();

    tr.model = model_of(result.reporting.at(0).client_latency_us.values(),
                        sla_limit_us, bulk);
    layer_counts(tb->fabric(), tb->sim(), tr.counts);
    double requests = 0.0;
    for (auto& pair : tb->pairs()) {
      requests += static_cast<double>(pair->server().metrics().requests);
      const auto& cm = pair->client().metrics();
      check(tr, cm.received <= cm.sent,
            pair->name() + ": completed more requests than sent");
      check(tr, pair->server().metrics().requests <= cm.sent,
            pair->name() + ": served more requests than sent");
      check(tr, cm.errors == 0 && pair->server().metrics().send_errors == 0,
            pair->name() + ": request errors on a fault-free fabric");
    }
    tr.counts["benchex.requests"] = requests;
    tr.counts["ibmon.samples"] =
        ibmon != nullptr ? static_cast<double>(ibmon->samples_taken()) : 0.0;

    Digest d;
    for (auto& pair : tb->pairs()) {
      d.add(pair->name());
      digest_samples(d, pair->client().metrics().latency_us.values());
      d.add(pair->client().metrics().sent);
      d.add(pair->client().metrics().received);
      d.add(pair->server().metrics().requests);
      d.add(pair->server().metrics().checksum);
      d.add(pair->server().metrics().total_us.mean());
    }
    d.add(static_cast<std::uint64_t>(result.timeline.size()));
    for (const auto& rec : result.timeline) {
      d.add(static_cast<std::uint64_t>(rec.at));
      d.add(rec.cap);
      d.add(rec.resos_balance);
    }
    digest_fabric(d, tb->fabric());
    tr.digest = d.hex();
  }
  return out;
}

cluster::ClusterScenarioConfig fattree_config(std::uint64_t seed) {
  cluster::ClusterScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.migration_enabled = true;
  cfg.warmup = kFattreeWarmup;
  cfg.duration = kFattreeDuration;
  cfg.seed = seed;
  return cfg;
}

FattreeRun run_fattree_assembly(const cluster::ClusterScenarioConfig& config,
                                const TrialContext& ctx) {
  SpanRecorder off(false);
  SpanRecorder& spans = ctx.spans != nullptr ? *ctx.spans : off;
  FattreeRun out;
  TrialResult& tr = out.trial;
  cluster::ClusterScenarioResult& result = out.scenario;
  const std::uint32_t pairs = config.nodes / 4;

  const double t0 = thread_cpu_s();
  const int setup_span = spans.begin("setup", -1, ctx.trial);
  if (config.sla_limit_us.has_value() && config.baseline_total_us.has_value()) {
    result.sla_limit_us = *config.sla_limit_us;
    result.baseline_total_us = *config.baseline_total_us;
  } else {
    // run_cluster_scenario's calibration: a solo run on the same topology.
    ScopedSpan span(spans, "setup.calibrate", setup_span, ctx.trial);
    cluster::ClusterScenarioConfig solo = config;
    solo.with_interferers = false;
    solo.migration_enabled = false;
    solo.duration = 300_ms;
    solo.sla_limit_us = 0.0;
    solo.baseline_total_us = 0.0;
    TrialContext quiet;
    quiet.seed = config.seed;
    const auto base = run_fattree_assembly(solo, quiet);
    result.sla_limit_us = base.scenario.services.at(0).client_mean_us *
                          (1.0 + config.sla_threshold_pct / 100.0);
    result.baseline_total_us = base.scenario.services.at(0).server_total_us;
    tr.calibrate_s = thread_cpu_s() - t0;
  }

  std::unique_ptr<cluster::Cluster> cl;
  {
    ScopedSpan span(spans, "setup.construct", setup_span, ctx.trial);
    cluster::ClusterConfig ccfg;
    ccfg.nodes = config.nodes;
    ccfg.pcpus_per_node = config.pcpus_per_node;
    ccfg.topology = config.topology;
    ccfg.leaf_width = config.leaf_width;
    ccfg.spines = config.spines;
    ccfg.trunk_bandwidth_scale = config.trunk_bandwidth_scale;
    config.congestion.apply(ccfg.fabric);
    config.qos.apply(ccfg.fabric);
    ccfg.fabric.routing = config.routing;
    if (config.routing.vl_shift) ccfg.fabric.reserve_shift_lane();
    cl = std::make_unique<cluster::Cluster>(ccfg);
  }
  std::vector<std::unique_ptr<cluster::Service>> services;
  std::vector<std::unique_ptr<cluster::Service>> interferers;
  {
    ScopedSpan span(spans, "setup.deploy", setup_span, ctx.trial);
    for (std::uint32_t i = 0; i < pairs; ++i) {
      auto cfg = core::reporting_config(config.reporting_buffer,
                                        config.reporting_rate,
                                        sim::derive(config.seed, i));
      cfg.metrics_start = config.warmup;
      services.push_back(std::make_unique<cluster::Service>(
          cl->hca(i), cl->hca(config.nodes / 2 + i), cfg,
          "rep" + std::to_string(i), /*with_agent=*/true));
    }
    if (config.with_interferers) {
      for (std::uint32_t i = 0; i < pairs; ++i) {
        auto cfg = core::interferer_config(config.intf_buffer,
                                           config.intf_depth,
                                           sim::derive(config.seed, 100 + i));
        cfg.metrics_start = config.warmup;
        interferers.push_back(std::make_unique<cluster::Service>(
            cl->hca(i), cl->hca(config.nodes / 2 + pairs + i), cfg,
            "intf" + std::to_string(i), /*with_agent=*/false));
      }
    }
  }
  core::ClusterExchange exchange;
  std::unique_ptr<cluster::MigrationEngine> engine;
  std::unique_ptr<cluster::ClusterBroker> broker;
  {
    ScopedSpan span(spans, "setup.broker", setup_span, ctx.trial);
    if (config.migration_enabled) {
      engine = std::make_unique<cluster::MigrationEngine>(*cl, config.migration);
      cluster::BrokerConfig bcfg = config.broker;
      bcfg.sla_threshold_pct = config.sla_threshold_pct;
      broker = std::make_unique<cluster::ClusterBroker>(*cl, exchange, *engine,
                                                        bcfg);
      for (auto& svc : services) broker->manage(*svc, result.baseline_total_us);
      broker->start();
    }
    for (auto& svc : services) svc->start();
    for (auto& svc : interferers) svc->start();
  }
  spans.end(setup_span);
  tr.setup_s = thread_cpu_s() - t0;

  {
    ScopedSpan span(spans, "run", -1, ctx.trial);
    timed_run_until(cl->sim(), config.warmup + config.duration, ctx, span.id(),
                    tr);
  }

  {
    ScopedSpan span(spans, "collect", -1, ctx.trial);
    std::uint64_t pooled_samples = 0;
    std::uint64_t pooled_violations = 0;
    std::vector<double> pooled;
    for (auto& svc : services) {
      cluster::ClusterServiceSummary s;
      s.name = svc->name();
      s.requests = svc->server_metrics().requests;
      const auto& lat = svc->client_metrics().latency_us;
      s.client_mean_us = lat.mean();
      s.client_p99_us = lat.percentile(99.0);
      s.server_total_us = svc->server_metrics().total_us.mean();
      s.samples = lat.count();
      for (const double v : lat.values()) {
        if (v > result.sla_limit_us) ++s.violations;
      }
      s.violation_pct = s.samples == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(s.violations) /
                                  static_cast<double>(s.samples);
      s.migrations = svc->migrations();
      s.final_node = svc->server_node_id();
      pooled_samples += s.samples;
      pooled_violations += s.violations;
      pooled.insert(pooled.end(), lat.values().begin(), lat.values().end());
      result.services.push_back(std::move(s));
    }
    double intf_bytes = 0.0;
    for (auto& svc : interferers) {
      cluster::ClusterServiceSummary s;
      s.name = svc->name();
      s.requests = svc->server_metrics().requests;
      s.client_mean_us = svc->client_metrics().latency_us.mean();
      s.client_p99_us = svc->client_metrics().latency_us.percentile(99.0);
      s.server_total_us = svc->server_metrics().total_us.mean();
      s.samples = svc->client_metrics().latency_us.count();
      s.migrations = svc->migrations();
      s.final_node = svc->server_node_id();
      intf_bytes += static_cast<double>(s.requests) * config.intf_buffer;
      result.interferers.push_back(std::move(s));
    }
    result.violation_pct =
        pooled_samples == 0 ? 0.0
                            : 100.0 * static_cast<double>(pooled_violations) /
                                  static_cast<double>(pooled_samples);
    if (engine != nullptr) result.migration = engine->stats();

    const double total_s = sim::to_sec(config.warmup + config.duration);
    tr.model = model_of(pooled, result.sla_limit_us,
                        intf_bytes / total_s / 1e6);
    tr.model.viol_pct = result.violation_pct;
    layer_counts(cl->fabric(), cl->sim(), tr.counts);
    double requests = 0.0;
    Digest d;
    for (auto* group : {&services, &interferers}) {
      for (auto& svc : *group) {
        requests += static_cast<double>(svc->server_metrics().requests);
        const auto& cm = svc->client_metrics();
        check(tr, cm.received <= cm.sent,
              svc->name() + ": completed more requests than sent");
        d.add(svc->name());
        digest_samples(d, cm.latency_us.values());
        d.add(cm.sent);
        d.add(cm.received);
        d.add(svc->server_metrics().requests);
        d.add(svc->server_metrics().checksum);
        d.add(static_cast<std::uint64_t>(svc->migrations()));
        d.add(static_cast<std::uint64_t>(svc->server_node_id()));
      }
    }
    check(tr, result.migration.failed == 0, "a live migration aborted");
    tr.counts["benchex.requests"] = requests;
    tr.counts["cluster.migrations"] =
        static_cast<double>(result.migration.migrations);
    tr.counts["cluster.migration_mb"] =
        static_cast<double>(result.migration.bytes) / 1e6;
    tr.counts["cluster.blackout_ms"] =
        static_cast<double>(result.migration.pause_ns_total) / 1e6;
    d.add(result.migration.migrations);
    d.add(result.migration.bytes);
    d.add(static_cast<std::uint64_t>(result.migration.pause_ns_total));
    d.add(result.sla_limit_us);
    digest_fabric(d, cl->fabric());
    tr.digest = d.hex();
  }
  return out;
}

TrialResult run_trial(WorkloadId w, const TrialContext& ctx) {
  SpanRecorder off(false);
  TrialContext c = ctx;
  if (c.spans == nullptr) c.spans = &off;
  switch (w) {
    case WorkloadId::kPaper2vm: return run_paper_2vm(c);
    case WorkloadId::kFattreeScaleout: return run_fattree(c);
    case WorkloadId::kLanesAllreduce: return run_lanes(c, true);
    case WorkloadId::kLanesAllreduceLeaf: return run_lanes(c, false);
    case WorkloadId::kSweepParallel: return run_sweep(c);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace simbench
