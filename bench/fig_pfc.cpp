// Lossless fabrics compared: PFC per-hop pause vs its alternatives.
//
// Part 1 — 8:1 single-switch incast, four fabric modes at the same load:
//   lossless     infinite port buffers (the historical resex fabric).
//   taildrop     finite buffers, no marking: overflows drop, RC recovers.
//   ecn+dcqcn    finite buffers + ECN marking + DCQCN-style rate control.
//   pfc          the same finite buffers, lossless: the hot port pauses its
//                feeders at XOFF instead of dropping (drops must be 0).
//
// Part 2 — head-of-line blocking over the fat-tree (resex::cluster shape):
// three aggressors on leaf 0 incast into a receiver on leaf 1 while a victim
// flow (leaf 0 -> a *different* host on leaf 1) shares only the trunks —
// which have ample capacity. Under ECN+DCQCN the aggressors are throttled at
// their sources and the victim keeps line rate; under PFC the pause tree
// grows backwards from the hot port (downlink -> spine trunk -> leaf trunk
// -> every sender uplink on leaf 0) and gates the victim too, although
// nothing on its own path is congested. The victim_MBps column measures
// exactly that collateral damage; `pauses` counts XOFF assertions (the
// pause-storm footprint).
//
// Runner-backed via generic points; per-trial results are byte-identical for
// any --jobs value.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/topology.hpp"
#include "congestion/dcqcn.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr std::uint32_t kWriteBytes = 64 * 1024;
constexpr sim::SimDuration kWarmup = 100_ms;
constexpr sim::SimDuration kMeasure = 300_ms;
constexpr sim::SimDuration kDrain = 50_ms;

struct Mode {
  std::string name;
  std::uint32_t buf_pkts = 0;  // 0 = infinite (lossless)
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  bool rate_control = false;
  bool pfc = false;
};

void apply_mode(fabric::FabricConfig& cfg, const Mode& mode) {
  cfg.port_buffer_pkts = mode.buf_pkts;
  cfg.ecn_kmin_pkts = mode.ecn_kmin;
  cfg.ecn_kmax_pkts = mode.ecn_kmax;
  cfg.pfc_enabled = mode.pfc;
}

/// Part 1: 8:1 incast through one switch, as fig_incast but with a PFC row.
/// Returns {reqs, p50_us, p99_us, drops, pauses, goodput_MBps, victim_MBps,
/// victim_p99_us} (the victim columns are 0 here — no victim flow).
std::vector<double> run_incast(std::uint32_t senders, const Mode& mode,
                               std::uint64_t seed) {
  sim::Simulation sim;
  fabric::FabricConfig cfg;
  apply_mode(cfg, mode);
  fabric::Fabric fabric(sim, cfg);

  std::unique_ptr<congestion::RateController> rate_controller;
  if (mode.rate_control) {
    rate_controller = std::make_unique<congestion::RateController>(fabric);
  }

  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<fabric::Hca*> hcas;
  for (std::uint32_t i = 0; i <= senders; ++i) {
    nodes.push_back(std::make_unique<hv::Node>(
        sim, i == 0 ? "recv" : "send" + std::to_string(i), 4));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }

  Endpoint recv = make_endpoint(*nodes[0], *hcas[0], "recv_vm",
                                std::uint64_t{senders} * kWriteBytes);
  std::vector<Endpoint> send_eps;
  std::vector<fabric::QueuePair*> recv_qps;
  for (std::uint32_t i = 0; i < senders; ++i) {
    send_eps.push_back(make_endpoint(*nodes[i + 1], *hcas[i + 1],
                                     "send_vm" + std::to_string(i),
                                     kWriteBytes));
    recv_qps.push_back(&hcas[0]->create_qp(*recv.domain, recv.pd,
                                           *recv.send_cq, *recv.recv_cq));
    fabric::Fabric::connect(*send_eps.back().qp, *recv_qps.back());
  }

  const sim::SimTime end = kWarmup + kMeasure;
  std::vector<std::unique_ptr<sim::Samples>> latencies;
  sim::Rng jitter(sim::derive(seed, 0x9fc));
  for (std::uint32_t i = 0; i < senders; ++i) {
    latencies.push_back(std::make_unique<sim::Samples>());
    const auto start = static_cast<sim::SimDuration>(
        jitter.uniform(0.0, static_cast<double>(10_us)));
    sim.spawn(sender_loop(sim, send_eps[i],
                          recv.buf + std::uint64_t{i} * kWriteBytes,
                          recv.mr.rkey, kWriteBytes, start, kWarmup, end,
                          *latencies[i]));
  }

  std::uint64_t bytes_at_warmup = 0;
  sim.spawn([](sim::Simulation& s, fabric::Hca& hca,
               std::uint64_t& out) -> sim::Task {
    co_await s.delay(kWarmup);
    out = hca.downlink().bytes_sent();
  }(sim, *hcas[0], bytes_at_warmup));

  sim.run_until(end + kDrain);

  sim::Samples pooled;
  for (const auto& s : latencies) {
    for (const double v : s->values()) pooled.add(v);
  }
  const auto& down = hcas[0]->downlink();
  const double goodput_mbps =
      static_cast<double>(down.bytes_sent() - bytes_at_warmup) /
      sim::to_sec(kMeasure + kDrain) / 1e6;
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          static_cast<double>(down.buf_drops()),
          static_cast<double>(down.pauses_sent()),
          goodput_mbps,
          0.0,
          0.0};
}

/// Part 2: fat-tree HoL measurement. Aggressors n1..n3 (leaf 0) incast into
/// n4 (leaf 1); the victim writes n0 -> n5, sharing only the (uncongested)
/// trunks with the incast. Returns the same column vector as run_incast,
/// with goodput = incast receiver, victim_MBps = the victim's own rate and
/// victim_p99_us = the victim's per-write p99 latency — the latency baseline
/// the qos experiment (bench_fig_qos) measures its isolation against:
/// goodput alone hides HoL pain that shows up as pause-stretched tails.
std::vector<double> run_fat_tree(const Mode& mode, std::uint64_t seed) {
  cluster::ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.topology = cluster::TopologyKind::kFatTree;
  ccfg.leaf_width = 4;
  ccfg.spines = 1;
  // Fat trunks: the 3 GiB/s the aggressors + victim can offer never
  // congests them on its own — only PFC's backpressure fills them up.
  ccfg.trunk_bandwidth_scale = 8.0;
  apply_mode(ccfg.fabric, mode);
  cluster::Cluster cl(ccfg);
  sim::Simulation& sim = cl.sim();

  std::unique_ptr<congestion::RateController> rate_controller;
  if (mode.rate_control) {
    rate_controller = std::make_unique<congestion::RateController>(cl.fabric());
  }

  constexpr std::uint32_t kAggressors = 3;  // n1..n3 -> n4
  Endpoint incast_recv = make_endpoint(cl.node(4), cl.hca(4), "incast_recv",
                                       std::uint64_t{kAggressors} * kWriteBytes);
  Endpoint victim_recv =
      make_endpoint(cl.node(5), cl.hca(5), "victim_recv", kWriteBytes);
  Endpoint victim =
      make_endpoint(cl.node(0), cl.hca(0), "victim_send", kWriteBytes);
  fabric::QueuePair& victim_rqp = cl.hca(5).create_qp(
      *victim_recv.domain, victim_recv.pd, *victim_recv.send_cq,
      *victim_recv.recv_cq);
  fabric::Fabric::connect(*victim.qp, victim_rqp);

  std::vector<Endpoint> aggressors;
  std::vector<fabric::QueuePair*> recv_qps;
  for (std::uint32_t i = 0; i < kAggressors; ++i) {
    aggressors.push_back(make_endpoint(cl.node(i + 1), cl.hca(i + 1),
                                       "agg" + std::to_string(i),
                                       kWriteBytes));
    recv_qps.push_back(&cl.hca(4).create_qp(*incast_recv.domain,
                                            incast_recv.pd,
                                            *incast_recv.send_cq,
                                            *incast_recv.recv_cq));
    fabric::Fabric::connect(*aggressors.back().qp, *recv_qps.back());
  }

  const sim::SimTime end = kWarmup + kMeasure;
  std::vector<std::unique_ptr<sim::Samples>> latencies;
  sim::Rng jitter(sim::derive(seed, 0x9fc));
  for (std::uint32_t i = 0; i < kAggressors; ++i) {
    latencies.push_back(std::make_unique<sim::Samples>());
    const auto start = static_cast<sim::SimDuration>(
        jitter.uniform(0.0, static_cast<double>(10_us)));
    sim.spawn(sender_loop(sim, aggressors[i],
                          incast_recv.buf + std::uint64_t{i} * kWriteBytes,
                          incast_recv.mr.rkey, kWriteBytes, start, kWarmup,
                          end, *latencies[i]));
  }
  sim::Samples victim_latency;
  sim.spawn(sender_loop(sim, victim, victim_recv.buf, victim_recv.mr.rkey,
                        kWriteBytes,
                        static_cast<sim::SimDuration>(
                            jitter.uniform(0.0, static_cast<double>(10_us))),
                        kWarmup, end, victim_latency));

  std::uint64_t incast_at_warmup = 0;
  std::uint64_t victim_at_warmup = 0;
  sim.spawn([](sim::Simulation& s, cluster::Cluster& c, std::uint64_t& a,
               std::uint64_t& b) -> sim::Task {
    co_await s.delay(kWarmup);
    a = c.hca(4).downlink().bytes_sent();
    b = c.hca(5).downlink().bytes_sent();
  }(sim, cl, incast_at_warmup, victim_at_warmup));

  sim.run_until(end + kDrain);

  sim::Samples pooled;
  for (const auto& s : latencies) {
    for (const double v : s->values()) pooled.add(v);
  }
  const double window_s = sim::to_sec(kMeasure + kDrain);
  const double incast_mbps =
      static_cast<double>(cl.hca(4).downlink().bytes_sent() -
                          incast_at_warmup) /
      window_s / 1e6;
  const double victim_mbps =
      static_cast<double>(cl.hca(5).downlink().bytes_sent() -
                          victim_at_warmup) /
      window_s / 1e6;
  const double drops = sim.metrics().counter("fabric.buf_drops").value();
  const double pauses =
      static_cast<double>(sim.metrics().counter("fabric.pfc_pauses").value());
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          drops,
          pauses,
          incast_mbps,
          victim_mbps,
          victim_latency.percentile(99.0)};
}

/// The lossless and head-of-line conclusions drawn from the table.
void print_hol_summary(
    const std::vector<resex::runner::GenericOutcome>& outcomes) {
  const auto mean_of = resex::bench::replicate_means(outcomes);
  constexpr std::size_t kDropsCol = 3;
  constexpr std::size_t kVictimCol = 6;
  const double pfc_drops = mean_of("incast pfc 8:1", kDropsCol) +
                           mean_of("fat-tree pfc victim", kDropsCol);
  const double victim_pfc = mean_of("fat-tree pfc victim", kVictimCol);
  const double victim_ecn = mean_of("fat-tree ecn+dcqcn victim", kVictimCol);
  const double degradation =
      victim_ecn > 0.0 ? 100.0 * (1.0 - victim_pfc / victim_ecn) : 0.0;
  std::cout << "\nPFC is lossless: " << pfc_drops
            << " buffer drops across the pfc rows (must be 0).\n"
            << "HoL blocking: the victim flow shares only uncongested trunks "
               "with the incast,\nyet runs at "
            << static_cast<std::uint64_t>(victim_pfc)
            << " MB/s under PFC vs "
            << static_cast<std::uint64_t>(victim_ecn)
            << " MB/s under ECN+DCQCN ("
            << static_cast<std::int64_t>(degradation)
            << "% degradation):\nthe pause tree gates whole upstream ports, "
               "not flows. ECN+DCQCN throttles the\noffenders at their "
               "sources and leaves the victim at line rate.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv);

  const std::uint32_t buf = opts.buf_pkts > 0 ? opts.buf_pkts : 64;
  const std::uint32_t kmin = opts.ecn_kmax > 0 ? opts.ecn_kmin : buf / 4;
  const std::uint32_t kmax = opts.ecn_kmax > 0 ? opts.ecn_kmax : (buf * 3) / 4;
  const Mode lossless{.name = "lossless"};
  const Mode taildrop{.name = "taildrop", .buf_pkts = buf};
  const Mode ecn{.name = "ecn+dcqcn",
                 .buf_pkts = buf,
                 .ecn_kmin = kmin,
                 .ecn_kmax = kmax,
                 .rate_control = true};
  const Mode pfc{.name = "pfc", .buf_pkts = buf, .pfc = true};

  std::vector<resex::runner::GenericPoint> points;
  constexpr std::uint32_t kIncastSenders = 8;
  for (const Mode& mode : {lossless, taildrop, ecn, pfc}) {
    resex::runner::GenericPoint p;
    p.label = "incast " + mode.name + " 8:1";
    p.params = {{"part", "incast"}, {"mode", mode.name}};
    p.run = [mode](std::uint64_t seed) {
      return run_incast(kIncastSenders, mode, seed);
    };
    points.push_back(std::move(p));
  }
  for (const Mode& mode : {lossless, ecn, pfc}) {
    resex::runner::GenericPoint p;
    p.label = "fat-tree " + mode.name + " victim";
    p.params = {{"part", "fat-tree"}, {"mode", mode.name}};
    p.run = [mode](std::uint64_t seed) { return run_fat_tree(mode, seed); };
    points.push_back(std::move(p));
  }

  return run_generic_bench(
      opts,
      "PFC: lossless per-hop pause vs tail-drop and ECN/DCQCN",
      "Part 1: 8 closed-loop senders RDMA-write 64KB blocks into one "
      "receiver through one\nswitch (buf=" + std::to_string(buf) +
          " pkts, Kmin=" + std::to_string(kmin) + ", Kmax=" +
          std::to_string(kmax) + "; PFC XOFF/XON at 60%/30% of the "
          "buffer).\nPart 2: 3 aggressors on leaf 0 incast into leaf 1 over "
          "a 2-tier fat-tree while a\nvictim flow (leaf 0 -> leaf 1, "
          "different hosts) shares only the fat trunks;\nvictim_MBps shows "
          "what PFC's pause tree (HoL blocking) costs it.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "pauses", "goodput_MBps",
       "victim_MBps", "victim_p99_us"},
      print_hol_summary);
}
