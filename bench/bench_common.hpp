#pragma once
// Shared helpers for the figure-reproduction benches: each bench prints the
// series of one figure from the paper's Section VII as an aligned table on
// stdout. Sweep-style benches run on resex::runner (parallel trials,
// --seeds K replication with derived seed streams, --json/--csv export);
// run_figure_bench / run_generic_bench below are the shared drivers.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "collective/collective.hpp"
#include "congestion/dcqcn.hpp"
#include "core/experiment.hpp"
#include "fabric/verbs.hpp"
#include "fault/fault.hpp"
#include "hv/node.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "runner/runner.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace resex::bench {

using namespace resex::sim::literals;

inline sim::Cell num(double v) { return sim::Cell{v}; }
inline sim::Cell num(std::uint64_t v) {
  return sim::Cell{static_cast<std::int64_t>(v)};
}
inline sim::Cell txt(std::string s) { return sim::Cell{std::move(s)}; }

/// Standard run length for figure benches: 1 warm-up epoch fragment plus
/// 1.2 s of measured time (covers a full Resos epoch).
inline core::ScenarioConfig figure_config() {
  core::ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 1200_ms;
  return cfg;
}

/// Human-readable buffer size ("64KB", "2MB").
inline std::string buffer_name(std::uint32_t bytes) {
  if (bytes >= 1024u * 1024u && bytes % (1024u * 1024u) == 0) {
    return std::to_string(bytes / (1024u * 1024u)) + "MB";
  }
  return std::to_string(bytes / 1024u) + "KB";
}

inline void print_scenario_header(const std::string& figure,
                                  const std::string& what) {
  sim::print_heading(std::cout, figure);
  std::cout << what << "\n\n";
}

/// Parse the standard runner CLI; on --help or a bad flag, prints to the
/// right stream and exits. Returns the options otherwise.
inline runner::RunnerOptions parse_cli(int argc, char** argv) {
  runner::RunnerOptions opts;
  try {
    opts = runner::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    runner::print_usage(std::cerr, argv[0]);
    std::exit(2);
  }
  if (opts.help) {
    runner::print_usage(std::cout, argv[0]);
    std::exit(0);
  }
  return opts;
}

/// The scenario flags a generic bench reads, on top of the runner's own
/// --jobs, --seeds, --seed, --json and --csv.
enum Reads : unsigned {
  kReadsNone = 0,
  kReadsBufPkts = 1u << 0,   // --buf-pkts
  kReadsEcn = 1u << 1,       // --ecn-kmin/--ecn-kmax
  kReadsFaults = 1u << 2,    // --faults
  kReadsColl = 1u << 3,      // --coll-*
  kReadsEcmpSeed = 1u << 4,  // --ecmp-seed, with the --routing it requires
};

/// The first flag set in `opts` that a bench reading only `reads` would
/// drop, or null.
inline const char* unread_flag(const runner::RunnerOptions& opts,
                               unsigned reads) {
  const bool ecmp_seed = (reads & kReadsEcmpSeed) != 0;
  const bool coll = (reads & kReadsColl) != 0;
  const std::pair<bool, const char*> flags[] = {
      {!opts.trace_path.empty(), "--trace"},
      {!opts.metrics_path.empty(), "--metrics-json"},
      {opts.metrics_period_ms > 0.0, "--metrics-period"},
      {!opts.faults.empty() && (reads & kReadsFaults) == 0, "--faults"},
      {opts.buf_pkts > 0 && (reads & kReadsBufPkts) == 0, "--buf-pkts"},
      {opts.ecn_kmax > 0 && (reads & kReadsEcn) == 0, "--ecn-kmin/--ecn-kmax"},
      {opts.buf_bytes > 0, "--buf-bytes"},
      {opts.pool_alpha > 0.0, "--pool-alpha"},
      {opts.pfc, "--pfc"},
      {opts.qos_set(), "--qos"},
      {opts.routing.multipath() &&
           !(ecmp_seed && opts.ecmp_seed_set),
       "--routing"},
      {opts.ecmp_seed_set && !ecmp_seed, "--ecmp-seed"},
      {opts.routing.vl_shift, "--vl-shift"},
      {opts.coll_ranks > 0 && !coll, "--coll-ranks"},
      {opts.coll_bytes > 0 && !coll, "--coll-bytes"},
      {opts.coll_chunk > 0 && !coll, "--coll-chunk"},
      {!opts.coll_algo.empty() && !coll, "--coll-algo"},
      {opts.coll_iters > 0 && !coll, "--coll-iters"},
  };
  for (const auto& [set, flag] : flags) {
    if (set) return flag;
  }
  return nullptr;
}

/// parse_cli for generic benches: a scenario flag the bench does not read is
/// reported like a bad flag, before any trial runs: one line on stderr,
/// exit 2.
inline runner::RunnerOptions parse_generic_cli(int argc, char** argv,
                                               unsigned reads) {
  auto opts = parse_cli(argc, argv);
  if (const char* flag = unread_flag(opts, reads)) {
    std::cerr << argv[0] << ": " << flag << ": not read by this bench\n";
    std::exit(2);
  }
  return opts;
}

/// `opts` with `infix` inserted before the extension of the --json/--csv
/// paths ("out.json" -> "out.ring.json"), so a bench's second table never
/// clobbers the first table's files.
inline runner::RunnerOptions with_export_infix(runner::RunnerOptions opts,
                                               const std::string& infix) {
  for (std::string* path : {&opts.json_path, &opts.csv_path}) {
    if (path->empty()) continue;
    const auto dot = path->rfind('.');
    if (dot == std::string::npos) {
      *path += infix;
    } else {
      path->insert(dot, infix);
    }
  }
  return opts;
}

/// Write the --json/--csv exports; an unwritable path must not abort the
/// process after the experiment already ran, so report it and fail the exit
/// code instead (the table is already on stdout by then).
inline int save_exports(const runner::ResultSink& sink,
                        const runner::RunnerOptions& opts, const auto& outcomes,
                        const char* bench) {
  int rc = 0;
  for (const auto& [path, kind] :
       {std::pair{opts.json_path, 'j'}, std::pair{opts.csv_path, 'c'}}) {
    if (path.empty()) continue;
    try {
      kind == 'j' ? sink.save_json(path, outcomes)
                  : sink.save_csv(path, outcomes);
    } catch (const std::exception& e) {
      std::cerr << bench << ": " << e.what() << "\n";
      rc = 1;
    }
  }
  return rc;
}

/// Write the --metrics-json snapshots of a scenario sweep; like
/// save_exports, an unwritable path is reported and fails the exit code.
inline int save_metrics(const runner::RunnerOptions& opts, const auto& outcomes,
                        const std::string& bench) {
  if (opts.metrics_path.empty()) return 0;
  try {
    runner::save_metrics_json(opts.metrics_path, outcomes);
  } catch (const std::exception& e) {
    std::cerr << bench << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Timing goes to stderr, never into the table or the exported files, so a
/// parallel run's outputs stay byte-identical to a serial run's.
inline void report_timing(std::size_t points, std::size_t seeds,
                          std::size_t jobs, double wall_ms) {
  std::cerr << "# runner: " << points << " points x " << seeds << " seeds = "
            << points * seeds << " trials, jobs=" << jobs << ", "
            << static_cast<long long>(wall_ms) << " ms\n";
}

/// Shared driver for runner-backed figure benches: runs the sweep under the
/// CLI options, prints the aggregate table (mean per metric, ±95% CI
/// columns when --seeds > 1), and writes the --json/--csv/--metrics-json
/// exports. A flag the two-node testbed cannot honour (--routing and its
/// kin) is reported like a bad flag, before any trial runs: one line on
/// stderr, exit 2.
inline int run_figure_bench(const runner::RunnerOptions& opts,
                            const std::string& figure, const std::string& what,
                            const runner::Sweep& sweep,
                            std::vector<runner::Metric> metrics) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<runner::PointOutcome> outcomes;
  try {
    outcomes = runner::run_sweep(sweep.points(), opts);
  } catch (const std::invalid_argument& e) {
    std::cerr << figure << ": " << e.what() << "\n";
    std::exit(2);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  print_scenario_header(figure, what);
  const runner::ResultSink sink(std::move(metrics));
  sink.table(outcomes).print(std::cout);
  int rc = save_exports(sink, opts, outcomes, figure.c_str());
  rc |= save_metrics(opts, outcomes, figure);
  report_timing(outcomes.size(), opts.seeds, opts.resolved_jobs(), wall_ms);
  return rc;
}

/// A (row label, metric column) -> replicate-mean lookup over `outcomes`;
/// 0 for a label with no row.
inline auto replicate_means(
    const std::vector<runner::GenericOutcome>& outcomes) {
  return [&outcomes](const std::string& label, std::size_t col) {
    for (const auto& o : outcomes) {
      if (o.label != label) continue;
      double sum = 0.0;
      for (const auto& trial : o.trial_values) sum += trial[col];
      return o.trial_values.empty()
                 ? 0.0
                 : sum / static_cast<double>(o.trial_values.size());
    }
    return 0.0;
  };
}

/// As run_figure_bench, but for benches whose trials are not a single
/// run_scenario call (generic seed -> metric-values points), so there is no
/// simulation to trace; parse their CLI with parse_generic_cli. `summary`,
/// when given, prints its conclusions from the outcomes after the table.
inline int run_generic_bench(
    const runner::RunnerOptions& opts, const std::string& figure,
    const std::string& what, std::vector<runner::GenericPoint> points,
    std::vector<std::string> metric_names,
    const std::function<void(const std::vector<runner::GenericOutcome>&)>&
        summary = {}) {
  print_scenario_header(figure, what);
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner::run_generic(std::move(points), opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const auto sink = runner::ResultSink::named(std::move(metric_names));
  sink.table(outcomes).print(std::cout);
  const int rc = save_exports(sink, opts, outcomes, figure.c_str());
  if (summary) summary(outcomes);
  report_timing(outcomes.size(), opts.seeds, opts.resolved_jobs(), wall_ms);
  return rc;
}

// --- hand-built fabric workloads (fig_incast, fig_pfc, fig_qos, fig_routing,
// fig_allreduce)

/// One fabric-mode row: finite switch buffers, ECN marking with DCQCN rate
/// control, PFC, and qos lanes (two classes, optionally with lane shifts).
struct FabricMode {
  std::string name{};
  std::uint32_t buf_pkts = 0;  // 0 = infinite (lossless)
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  bool rate_control = false;
  congestion::DcqcnConfig dcqcn{};
  bool pfc = false;
  bool qos = false;       // SL0 (latency) -> VL0 high table, SL1 (bulk) -> VL1
  bool vl_shift = false;  // qos lanes plus deadlock-free lane shifts

  void apply(fabric::FabricConfig& cfg) const {
    cfg.port_buffer_pkts = buf_pkts;
    cfg.ecn_kmin_pkts = ecn_kmin;
    cfg.ecn_kmax_pkts = ecn_kmax;
    cfg.pfc_enabled = pfc;
    if (qos || vl_shift) {
      qos::QosConfig q;
      q.enabled = true;
      q.apply(cfg);
    }
    if (vl_shift) routing::RoutingConfig{.vl_shift = true}.apply(cfg);
  }

  /// The DCQCN controller of a rate-controlled row, else null.
  [[nodiscard]] std::unique_ptr<congestion::RateController> rate_controller(
      fabric::Fabric& fabric) const {
    if (!rate_control) return nullptr;
    return std::make_unique<congestion::RateController>(fabric, dcqcn);
  }
};

/// The standard rows, sized from --buf-pkts (default 64 packets) with ECN
/// marking from --ecn-kmin to --ecn-kmax (default: a quarter to three
/// quarters of the buffer).
struct StandardModes {
  std::uint32_t buf = 0;
  std::uint32_t kmin = 0;
  std::uint32_t kmax = 0;
  FabricMode lossless, taildrop, ecn, pfc, pfc_vlshift;

  /// "buf=64 pkts, Kmin=16, Kmax=48", for the bench headers.
  [[nodiscard]] std::string describe() const {
    return "buf=" + std::to_string(buf) + " pkts, Kmin=" +
           std::to_string(kmin) + ", Kmax=" + std::to_string(kmax);
  }
};

inline StandardModes standard_modes(const runner::RunnerOptions& opts) {
  StandardModes m;
  m.buf = opts.buf_pkts > 0 ? opts.buf_pkts : 64;
  m.kmin = opts.ecn_kmax > 0 ? opts.ecn_kmin : m.buf / 4;
  m.kmax = opts.ecn_kmax > 0 ? opts.ecn_kmax : (m.buf * 3) / 4;
  m.lossless = {.name = "lossless"};
  m.taildrop = {.name = "taildrop", .buf_pkts = m.buf};
  m.ecn = {.name = "ecn+dcqcn",
           .buf_pkts = m.buf,
           .ecn_kmin = m.kmin,
           .ecn_kmax = m.kmax,
           .rate_control = true};
  m.pfc = {.name = "pfc", .buf_pkts = m.buf, .pfc = true};
  m.pfc_vlshift = {
      .name = "pfc+vlshift", .buf_pkts = m.buf, .pfc = true, .vl_shift = true};
  return m;
}

/// A cluster running one fabric mode: the mode applied to its fabric, and
/// its rate controller (if any) installed before any QP exists.
struct ModeCluster {
  ModeCluster(cluster::ClusterConfig cfg, const FabricMode& mode)
      : cluster(with_mode(std::move(cfg), mode)),
        rate_controller(mode.rate_controller(cluster.fabric())) {}

  cluster::Cluster cluster;
  std::unique_ptr<congestion::RateController> rate_controller;

 private:
  static cluster::ClusterConfig with_mode(cluster::ClusterConfig cfg,
                                          const FabricMode& mode) {
    mode.apply(cfg.fabric);
    return cfg;
  }
};

/// One guest with a verbs context, one QP and a single registered buffer
/// (the test fixture's endpoint bundle; benches cannot link the test tree).
struct Endpoint {
  hv::Domain* domain = nullptr;
  std::unique_ptr<fabric::Verbs> verbs;
  std::uint32_t pd = 0;
  fabric::CompletionQueue* send_cq = nullptr;
  fabric::CompletionQueue* recv_cq = nullptr;
  fabric::QueuePair* qp = nullptr;
  mem::GuestAddr buf = 0;
  mem::RegisteredRegion mr;
};

inline Endpoint make_endpoint(hv::Node& node, fabric::Hca& hca,
                              const std::string& name, std::size_t buf_bytes) {
  Endpoint ep;
  ep.domain = &node.create_domain({.name = name, .mem_pages = 2048});
  ep.verbs = std::make_unique<fabric::Verbs>(hca, *ep.domain);
  ep.pd = hca.alloc_pd(*ep.domain);
  ep.send_cq = &hca.create_cq(*ep.domain, 1024);
  ep.recv_cq = &hca.create_cq(*ep.domain, 1024);
  ep.qp = &hca.create_qp(*ep.domain, ep.pd, *ep.send_cq, *ep.recv_cq);
  ep.buf = ep.domain->allocator().allocate(buf_bytes, mem::kPageSize);
  ep.mr = hca.reg_mr(ep.pd, *ep.domain, ep.buf, buf_bytes,
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                         mem::Access::kRemoteRead);
  return ep;
}

/// Closed-loop writer: `write_bytes` RDMA writes back to back from
/// `start_jitter` until `end`. Each write's latency is sampled from its send
/// CQE (post -> completion, i.e. last byte ACKed) once the clock has passed
/// `warmup`. Stops early if the QP errors out (retry exhaustion).
inline sim::Task sender_loop(sim::Simulation& sim, Endpoint& ep,
                             mem::GuestAddr remote_addr, std::uint32_t rkey,
                             std::uint32_t write_bytes,
                             sim::SimDuration start_jitter, sim::SimTime warmup,
                             sim::SimTime end, sim::Samples& latency_us) {
  co_await sim.delay(start_jitter);
  std::uint64_t wr_id = 0;
  while (sim.now() < end) {
    const sim::SimTime t0 = sim.now();
    fabric::SendWr wr;
    wr.wr_id = ++wr_id;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = ep.buf;
    wr.lkey = ep.mr.lkey;
    wr.length = write_bytes;
    wr.remote_addr = remote_addr;
    wr.rkey = rkey;
    co_await ep.verbs->post_send(*ep.qp, std::move(wr));
    const fabric::Cqe cqe = co_await ep.verbs->next_cqe(*ep.send_cq);
    if (cqe.status != 0) co_return;
    if (sim.now() >= warmup) {
      latency_us.add(static_cast<double>(sim.now() - t0) / 1e3);
    }
  }
}

/// One directed closed-loop flow: `src` RDMA-writes 64KB blocks into its own
/// slot of `dst`'s receive region, with both QPs on service level `sl`.
struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t sl = 0;
};

/// The N:1 incast on a star cluster: nodes 1..N write into node 0.
inline std::vector<Flow> incast_flows(std::uint32_t senders) {
  std::vector<Flow> flows;
  for (std::uint32_t i = 0; i < senders; ++i) flows.push_back({i + 1, 0});
  return flows;
}

struct FlowWorkload {
  /// Setup runs in list order: first one receive endpoint per destination
  /// (in node order), then per flow its sender endpoint and receive QP. QP
  /// numbers are fabric-global, so this order is part of every output.
  std::vector<Flow> flows{};
  /// Flows draw their start jitter and start in list order from this index,
  /// wrapping around.
  std::size_t first_start = 0;
  /// Start jitter (uniform in [0, 10us)) comes from sim::derive(seed, tag).
  std::uint64_t jitter_tag = 0;
  sim::SimDuration measure = 0;
  /// Run on past the window so in-flight retransmissions land.
  sim::SimDuration drain = 0;
  /// Called at the end of warmup, after the downlink snapshot.
  std::function<void()> at_warmup{};
};

/// The head-of-line fat-tree of fig_pfc and fig_qos: 8 hosts, 4 per leaf,
/// one spine. Fat (8x) trunks: the 3 GiB/s the aggressors and the victim can
/// offer never congests them on its own — only PFC's backpressure fills them.
inline cluster::ClusterConfig hol_fat_tree() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = 4;
  cfg.spines = 1;
  cfg.trunk_bandwidth_scale = 8.0;
  return cfg;
}

/// Its workload: aggressors n1..n<aggressors> (leaf 0) incast into n4 (leaf
/// 1) on `bulk_sl` while the victim n0 -> n5 (flow 0, on SL0) shares only the
/// trunks with them. The victim is set up first but starts last.
inline FlowWorkload hol_workload(std::uint32_t aggressors,
                                 std::uint8_t bulk_sl) {
  FlowWorkload wl{.flows = {{0, 5}},
                  .first_start = 1,
                  .jitter_tag = 0x9fc,
                  .measure = 300_ms,
                  .drain = 50_ms};
  for (std::uint32_t i = 0; i < aggressors; ++i) {
    wl.flows.push_back({i + 1, 4, bulk_sl});
  }
  return wl;
}

struct FlowResult {
  std::vector<sim::Samples> latency_us;     // per flow, after warmup
  std::vector<std::uint64_t> window_bytes;  // per node: downlink, past warmup
  double window_s = 0.0;                    // measure + drain

  [[nodiscard]] double mbps(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / window_s / 1e6;
  }
  /// The latencies of flows [first, end) in one sample set.
  [[nodiscard]] sim::Samples pooled(std::size_t first = 0) const {
    sim::Samples all;
    for (std::size_t f = first; f < latency_us.size(); ++f) {
      for (const double v : latency_us[f].values()) all.add(v);
    }
    return all;
  }
};

/// Every flow workload measures after 100 ms of warmup.
inline constexpr sim::SimDuration kFlowWarmup = 100_ms;

/// Runs `wl` on `cl` from time 0 to warmup + measure + drain.
inline FlowResult run_flows(cluster::Cluster& cl, const FlowWorkload& wl,
                            std::uint64_t seed) {
  constexpr std::uint32_t kWriteBytes = 64 * 1024;
  const std::uint32_t nodes = cl.node_count();
  const std::size_t n = wl.flows.size();
  std::vector<std::uint32_t> fan_in(nodes, 0);
  for (const Flow& f : wl.flows) ++fan_in[f.dst];
  std::vector<Endpoint> recv(nodes);
  for (std::uint32_t d = 0; d < nodes; ++d) {
    if (fan_in[d] == 0) continue;
    recv[d] = make_endpoint(cl.node(d), cl.hca(d),
                            "recv_vm" + std::to_string(d),
                            std::uint64_t{fan_in[d]} * kWriteBytes);
  }
  std::vector<Endpoint> send;
  send.reserve(n);
  std::vector<mem::GuestAddr> slot(n);
  std::vector<std::uint32_t> used(nodes, 0);
  for (std::size_t f = 0; f < n; ++f) {
    const Flow& fl = wl.flows[f];
    Endpoint& r = recv[fl.dst];
    send.push_back(make_endpoint(cl.node(fl.src), cl.hca(fl.src),
                                 "send_vm" + std::to_string(f), kWriteBytes));
    fabric::QueuePair& rqp =
        cl.hca(fl.dst).create_qp(*r.domain, r.pd, *r.send_cq, *r.recv_cq);
    send.back().qp->set_service_level(fl.sl);
    rqp.set_service_level(fl.sl);
    fabric::Fabric::connect(*send.back().qp, rqp);
    slot[f] = r.buf + std::uint64_t{used[fl.dst]++} * kWriteBytes;
  }

  sim::Simulation& sim = cl.sim();
  const sim::SimTime end = kFlowWarmup + wl.measure;
  FlowResult res;
  res.latency_us.resize(n);
  sim::Rng jitter(sim::derive(seed, wl.jitter_tag));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t f = (wl.first_start + k) % n;
    const auto start = static_cast<sim::SimDuration>(
        jitter.uniform(0.0, static_cast<double>(10_us)));
    const Endpoint& r = recv[wl.flows[f].dst];
    sim.spawn(sender_loop(sim, send[f], slot[f], r.mr.rkey, kWriteBytes,
                          start, kFlowWarmup, end, res.latency_us[f]));
  }

  // Goodput is measured past warmup only.
  std::vector<std::uint64_t> bytes_at_warmup(nodes, 0);
  sim.spawn([](cluster::Cluster& c, const FlowWorkload& w,
               std::vector<std::uint64_t>& bytes) -> sim::Task {
    co_await c.sim().delay(kFlowWarmup);
    for (std::uint32_t d = 0; d < c.node_count(); ++d) {
      bytes[d] = c.hca(d).downlink().bytes_sent();
    }
    if (w.at_warmup) w.at_warmup();
  }(cl, wl, bytes_at_warmup));

  sim.run_until(end + wl.drain);

  for (std::uint32_t d = 0; d < nodes; ++d) {
    res.window_bytes.push_back(cl.hca(d).downlink().bytes_sent() -
                               bytes_at_warmup[d]);
  }
  res.window_s = sim::to_sec(wl.measure + wl.drain);
  return res;
}

/// Closed-form uncongested completion time of one collective iteration at
/// link rate `bps`.
inline double ideal_seconds(const collective::CollectiveConfig& c,
                            double bps) {
  const double s = static_cast<double>(c.payload_bytes);
  const double n = c.ranks;
  switch (c.algorithm) {
    case collective::Algorithm::kRingAllReduce:
      return 2.0 * (n - 1.0) * (s / n) / bps;
    case collective::Algorithm::kAllGather:
      return (n - 1.0) * s / bps;  // sum over steps of 2^s blocks
    case collective::Algorithm::kBroadcast:
      return std::ceil(std::log2(n)) * s / bps;
  }
  return 0.0;
}

struct RingOutcome {
  bool finished = false;  // the group completed or aborted in time
  collective::CollectiveResult result;
  double ideal_s = 0.0;  // closed form, all iterations
  double retx = 0.0;
  double drops = 0.0;
  double marks = 0.0;
  double pauses = 0.0;
};

/// One collective group of `coll.ranks` hosts. The star puts rank r on node
/// r. The fat-tree has two leaves over one 1x spine trunk and stripes ranks
/// across them (rank r on leaf r % 2), so every ring edge crosses the trunk
/// and it is leaf_width:1 oversubscribed. `faults` (a fault::FaultPlan spec,
/// empty = none) is armed before the group starts. The run stops at
/// `horizon`, or, when that is 0, at 100x the closed form plus 2 s:
/// congested runs take a few times ideal, and a flapped ring also burns the
/// full RC retry budget (~255 ms per death).
inline RingOutcome run_ring_trial(cluster::TopologyKind topo,
                                  const FabricMode& mode,
                                  const collective::CollectiveConfig& coll,
                                  const std::string& faults,
                                  std::uint64_t seed,
                                  sim::SimTime horizon = 0) {
  const std::uint32_t ranks = coll.ranks;
  cluster::ClusterConfig cfg;
  cfg.nodes = ranks;
  cfg.pcpus_per_node = 2;
  cfg.topology = topo;
  cfg.leaf_width = (ranks + 1) / 2;
  cfg.spines = 1;
  cfg.trunk_bandwidth_scale = 1.0;
  ModeCluster mc(cfg, mode);
  cluster::Cluster& cl = mc.cluster;
  std::unique_ptr<fault::FaultInjector> injector;
  if (!faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(faults), seed);
    injector->arm(cl.fabric(), &cl.node(0));
  }

  std::vector<collective::RankHome> homes(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const std::uint32_t node = topo == cluster::TopologyKind::kFatTree
                                   ? (r % 2) * cfg.leaf_width + r / 2
                                   : r;
    homes[r] = collective::RankHome{&cl.node(node), &cl.hca(node)};
  }
  collective::CollectiveGroup group(cl.sim(), std::move(homes), coll);
  group.start();

  RingOutcome out;
  out.ideal_s = ideal_seconds(coll, cl.fabric().config().link_bytes_per_sec) *
                coll.iterations;
  cl.sim().run_until(horizon > 0 ? horizon
                                 : static_cast<sim::SimDuration>(
                                       out.ideal_s * 1e9 * 100) +
                                       2'000_ms);
  out.finished = group.done();
  out.result = group.result();
  auto& m = cl.sim().metrics();
  out.retx = static_cast<double>(m.counter("fabric.retransmits").value());
  out.drops = static_cast<double>(m.counter("fabric.buf_drops").value());
  out.marks = static_cast<double>(m.counter("fabric.ecn_marks").value());
  out.pauses = static_cast<double>(m.counter("fabric.pfc_pauses").value());
  return out;
}

}  // namespace resex::bench
