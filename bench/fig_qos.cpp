// QoS: service levels and virtual lanes — does class separation actually
// isolate latency traffic from bulk traffic on a shared fabric?
//
// Part 1 — the fig_pfc fat-tree victim experiment, rerun with two classes:
// three aggressors on leaf 0 incast into a receiver on leaf 1 under PFC
// while a victim flow (leaf 0 -> a different leaf-1 host) shares only the
// (fat, uncongested) trunks. fig_pfc showed the 1-class result: the pause
// tree grows backwards from the hot port and gates the victim's uplink too.
// Here the aggressors ride the bulk service level (SL1 -> VL1) and the
// victim the latency level (SL0 -> VL0, high-priority arbitration table):
//   uncontended    victim alone — its goodput/p99 ceiling.
//   pfc 1-class    aggressors + victim, --qos off: the fig_pfc HoL number.
//   pfc 2-class    the same offered load with qos on: XOFF asserts only the
//                  bulk lane (class-bitmap pause frames), so the victim's
//                  lane keeps flowing through the very same ports.
// Acceptance: 2-class victim goodput and p99 within 10% of uncontended
// while the bulk class keeps >= 90% of its 1-class goodput.
//
// Part 2 — allreduce-under-incast with two classes: a 4-rank ring
// all-reduce striped across a 1x spine trunk (every ring edge crosses it)
// runs continuously as bulk traffic — resex::collective marks its QPs
// SL1 by default — while a latency victim on the same trunk measures
// per-write p99. The fabric is lossless (infinite buffers, no PFC: a
// cyclically-routed ring under PFC deadlocks, see fig_allreduce — Part 1
// already covers per-class pause frames), so the contended resource is
// pure trunk queueing. With one class the victim queues behind the
// collective's chunks; with two classes the VL arbiter's high-priority
// table lets the victim's packets overtake at every hop.
//
// Runner-backed via generic points; per-trial results are byte-identical
// for any --jobs value.

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/topology.hpp"
#include "collective/collective.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "qos/config.hpp"
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

/// Two-class fabric: SL0 (latency) -> VL0 on the high-priority arbitration
/// table, SL1 (bulk) -> VL1 — the QosConfig defaults.
void apply_two_class(fabric::FabricConfig& cfg) {
  qos::QosConfig q;
  q.enabled = true;
  q.apply(cfg);
}

/// Part 1: the fig_pfc fat-tree victim rerun. Aggressors n1..n3 (leaf 0)
/// incast into n4 (leaf 1) on the bulk SL; the victim writes n0 -> n5 on
/// the latency SL. Returns {reqs, p50_us, p99_us, drops, pauses, bulk_MBps,
/// victim_MBps} where reqs/p50/p99 are the *victim's* per-write latencies
/// and bulk_MBps is the incast receiver's goodput.
std::vector<double> run_victim(bool aggressors_on, bool qos_on,
                               std::uint32_t buf, std::uint64_t seed) {
  cluster::ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.topology = cluster::TopologyKind::kFatTree;
  ccfg.leaf_width = 4;
  ccfg.spines = 1;
  // Fat trunks, as in fig_pfc: only PFC backpressure ever fills them.
  ccfg.trunk_bandwidth_scale = 8.0;
  ccfg.fabric.port_buffer_pkts = buf;
  ccfg.fabric.pfc_enabled = true;
  if (qos_on) apply_two_class(ccfg.fabric);
  cluster::Cluster cl(ccfg);
  sim::Simulation& sim = cl.sim();

  constexpr std::uint32_t kAggressors = 3;  // n1..n3 -> n4
  Endpoint incast_recv = make_endpoint(cl.node(4), cl.hca(4), "incast_recv",
                                       std::uint64_t{kAggressors} * kWriteBytes);
  Endpoint victim_recv =
      make_endpoint(cl.node(5), cl.hca(5), "victim_recv", kWriteBytes);
  Endpoint victim =
      make_endpoint(cl.node(0), cl.hca(0), "victim_send", kWriteBytes);
  victim.qp->set_service_level(qos::kLatencySl);
  fabric::QueuePair& victim_rqp = cl.hca(5).create_qp(
      *victim_recv.domain, victim_recv.pd, *victim_recv.send_cq,
      *victim_recv.recv_cq);
  fabric::Fabric::connect(*victim.qp, victim_rqp);

  std::vector<Endpoint> aggressors;
  std::vector<fabric::QueuePair*> recv_qps;
  for (std::uint32_t i = 0; aggressors_on && i < kAggressors; ++i) {
    aggressors.push_back(make_endpoint(cl.node(i + 1), cl.hca(i + 1),
                                       "agg" + std::to_string(i),
                                       kWriteBytes));
    // Bulk class on both ends (inert while qos is off: SL1 still maps to
    // the single legacy queue).
    aggressors.back().qp->set_service_level(qos::kBulkSl);
    recv_qps.push_back(&cl.hca(4).create_qp(*incast_recv.domain,
                                            incast_recv.pd,
                                            *incast_recv.send_cq,
                                            *incast_recv.recv_cq));
    recv_qps.back()->set_service_level(qos::kBulkSl);
    fabric::Fabric::connect(*aggressors.back().qp, *recv_qps.back());
  }

  const sim::SimTime end = kWarmup + kMeasure;
  std::vector<std::unique_ptr<sim::Samples>> agg_latencies;
  sim::Rng jitter(sim::derive(seed, 0x9fc));
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(aggressors.size());
       ++i) {
    agg_latencies.push_back(std::make_unique<sim::Samples>());
    const auto start = static_cast<sim::SimDuration>(
        jitter.uniform(0.0, static_cast<double>(10_us)));
    sim.spawn(sender_loop(sim, aggressors[i],
                          incast_recv.buf + std::uint64_t{i} * kWriteBytes,
                          incast_recv.mr.rkey, kWriteBytes, start, kWarmup,
                          end, *agg_latencies[i]));
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

  const double window_s = sim::to_sec(kMeasure + kDrain);
  const double bulk_mbps =
      static_cast<double>(cl.hca(4).downlink().bytes_sent() -
                          incast_at_warmup) /
      window_s / 1e6;
  const double victim_mbps =
      static_cast<double>(cl.hca(5).downlink().bytes_sent() -
                          victim_at_warmup) /
      window_s / 1e6;
  return {static_cast<double>(victim_latency.count()),
          victim_latency.median(),
          victim_latency.percentile(99.0),
          static_cast<double>(
              sim.metrics().counter("fabric.buf_drops").value()),
          static_cast<double>(
              sim.metrics().counter("fabric.pfc_pauses").value()),
          bulk_mbps,
          victim_mbps};
}

/// Part 2: continuous 4-rank ring all-reduce striped across a 1x spine
/// trunk (ranks on n0,n4,n1,n5 — every ring edge crosses the trunk) as the
/// bulk class, with a latency victim n2 -> n6 sharing that trunk. The
/// fabric is lossless without PFC (a PFC'd ring deadlocks on its cyclic
/// route), so trunk queueing alone separates the classes. Same column
/// vector as run_victim; bulk_MBps sums the rank hosts' downlink goodput
/// (= the collective's delivered bandwidth).
std::vector<double> run_allreduce_victim(bool coll_on, bool qos_on,
                                         std::uint64_t seed) {
  cluster::ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.pcpus_per_node = 2;
  ccfg.topology = cluster::TopologyKind::kFatTree;
  ccfg.leaf_width = 4;
  ccfg.spines = 1;
  ccfg.trunk_bandwidth_scale = 1.0;  // the trunk IS the contended resource
  if (qos_on) apply_two_class(ccfg.fabric);
  cluster::Cluster cl(ccfg);
  sim::Simulation& sim = cl.sim();

  // Ranks striped across the leaves; the collective marks its own QPs
  // bulk (SL1) — nothing to configure here, that is the default contract.
  const std::vector<std::uint32_t> rank_nodes = {0, 4, 1, 5};
  std::unique_ptr<collective::CollectiveGroup> group;
  if (coll_on) {
    collective::CollectiveConfig coll;
    coll.ranks = static_cast<std::uint32_t>(rank_nodes.size());
    coll.payload_bytes = 1u << 20;
    coll.chunk_bytes = 32 * 1024;
    coll.algorithm = collective::Algorithm::kRingAllReduce;
    // Effectively unbounded (hours of sim time at this payload — but small
    // enough that iterations * steps stays inside the 16-bit step id
    // space): the group must still be mid-flight when the window closes.
    coll.iterations = 5000;
    std::vector<collective::RankHome> homes;
    for (const std::uint32_t n : rank_nodes) {
      homes.push_back(collective::RankHome{&cl.node(n), &cl.hca(n)});
    }
    group = std::make_unique<collective::CollectiveGroup>(
        sim, std::move(homes), coll);
    group->start();
  }

  Endpoint victim_recv =
      make_endpoint(cl.node(6), cl.hca(6), "victim_recv", kWriteBytes);
  Endpoint victim =
      make_endpoint(cl.node(2), cl.hca(2), "victim_send", kWriteBytes);
  victim.qp->set_service_level(qos::kLatencySl);
  fabric::QueuePair& victim_rqp = cl.hca(6).create_qp(
      *victim_recv.domain, victim_recv.pd, *victim_recv.send_cq,
      *victim_recv.recv_cq);
  fabric::Fabric::connect(*victim.qp, victim_rqp);

  const sim::SimTime end = kWarmup + kMeasure;
  sim::Samples victim_latency;
  sim::Rng jitter(sim::derive(seed, 0x9fc));
  sim.spawn(sender_loop(sim, victim, victim_recv.buf, victim_recv.mr.rkey,
                        kWriteBytes,
                        static_cast<sim::SimDuration>(
                            jitter.uniform(0.0, static_cast<double>(10_us))),
                        kWarmup, end, victim_latency));

  std::uint64_t coll_at_warmup = 0;
  std::uint64_t victim_at_warmup = 0;
  sim.spawn([](sim::Simulation& s, cluster::Cluster& c,
               const std::vector<std::uint32_t>& ranks, std::uint64_t& a,
               std::uint64_t& b) -> sim::Task {
    co_await s.delay(kWarmup);
    for (const std::uint32_t n : ranks) a += c.hca(n).downlink().bytes_sent();
    b = c.hca(6).downlink().bytes_sent();
  }(sim, cl, rank_nodes, coll_at_warmup, victim_at_warmup));

  sim.run_until(end + kDrain);

  std::uint64_t coll_bytes = 0;
  for (const std::uint32_t n : rank_nodes) {
    coll_bytes += cl.hca(n).downlink().bytes_sent();
  }
  const double window_s = sim::to_sec(kMeasure + kDrain);
  const double bulk_mbps =
      coll_on ? static_cast<double>(coll_bytes - coll_at_warmup) /
                    window_s / 1e6
              : 0.0;
  const double victim_mbps =
      static_cast<double>(cl.hca(6).downlink().bytes_sent() -
                          victim_at_warmup) /
      window_s / 1e6;
  return {static_cast<double>(victim_latency.count()),
          victim_latency.median(),
          victim_latency.percentile(99.0),
          static_cast<double>(
              sim.metrics().counter("fabric.buf_drops").value()),
          static_cast<double>(
              sim.metrics().counter("fabric.pfc_pauses").value()),
          bulk_mbps,
          victim_mbps};
}

/// The class-isolation conclusions drawn from the table.
void print_isolation_summary(
    const std::vector<resex::runner::GenericOutcome>& outcomes) {
  const auto mean_of = resex::bench::replicate_means(outcomes);
  constexpr std::size_t kP99Col = 2;
  constexpr std::size_t kBulkCol = 5;
  constexpr std::size_t kVictimCol = 6;
  const auto pct = [](double a, double b) {
    return b > 0.0 ? 100.0 * a / b : 0.0;
  };
  const double v_base = mean_of("fat-tree uncontended", kVictimCol);
  const double v_1c = mean_of("fat-tree pfc 1-class", kVictimCol);
  const double v_2c = mean_of("fat-tree pfc 2-class qos", kVictimCol);
  const double p99_base = mean_of("fat-tree uncontended", kP99Col);
  const double p99_2c = mean_of("fat-tree pfc 2-class qos", kP99Col);
  const double bulk_1c = mean_of("fat-tree pfc 1-class", kBulkCol);
  const double bulk_2c = mean_of("fat-tree pfc 2-class qos", kBulkCol);
  const double ar_p99_1c = mean_of("allreduce 1-class", kP99Col);
  const double ar_p99_2c = mean_of("allreduce 2-class qos", kP99Col);
  std::cout << "\nIsolation (fat-tree victim): goodput "
            << static_cast<std::uint64_t>(v_1c) << " -> "
            << static_cast<std::uint64_t>(v_2c)
            << " MB/s with qos on, i.e. " << static_cast<std::int64_t>(
                   pct(v_2c, v_base))
            << "% of the uncontended " << static_cast<std::uint64_t>(v_base)
            << " MB/s (accept >= 90%);\nvictim p99 " << p99_2c << " us vs "
            << p99_base << " us uncontended ("
            << static_cast<std::int64_t>(pct(p99_2c, p99_base))
            << "%, accept <= 110%). The bulk class keeps "
            << static_cast<std::int64_t>(pct(bulk_2c, bulk_1c))
            << "% of its 1-class goodput (accept >= 90%).\n"
            << "Allreduce part: victim p99 " << ar_p99_1c
            << " us behind the 1-class collective vs " << ar_p99_2c
            << " us with two classes.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv);
  const std::uint32_t buf = opts.buf_pkts > 0 ? opts.buf_pkts : 64;

  struct Row {
    std::string label;
    std::string part;
    std::function<std::vector<double>(std::uint64_t)> run;
  };
  const std::vector<Row> rows = {
      {"fat-tree uncontended", "victim",
       [buf](std::uint64_t s) { return run_victim(false, false, buf, s); }},
      {"fat-tree pfc 1-class", "victim",
       [buf](std::uint64_t s) { return run_victim(true, false, buf, s); }},
      {"fat-tree pfc 2-class qos", "victim",
       [buf](std::uint64_t s) { return run_victim(true, true, buf, s); }},
      {"allreduce uncontended", "allreduce",
       [](std::uint64_t s) { return run_allreduce_victim(false, false, s); }},
      {"allreduce 1-class", "allreduce",
       [](std::uint64_t s) { return run_allreduce_victim(true, false, s); }},
      {"allreduce 2-class qos", "allreduce",
       [](std::uint64_t s) { return run_allreduce_victim(true, true, s); }},
  };
  std::vector<resex::runner::GenericPoint> points;
  for (const Row& row : rows) {
    resex::runner::GenericPoint p;
    p.label = row.label;
    p.params = {{"part", row.part},
                {"qos", row.label.find("2-class") != std::string::npos
                            ? "on" : "off"}};
    p.run = row.run;
    points.push_back(std::move(p));
  }

  return run_generic_bench(
      opts,
      "QoS: two traffic classes on shared virtual lanes",
      "Part 1: the fig_pfc fat-tree victim rerun (buf=" + std::to_string(buf) +
          " pkts, PFC) with aggressors on the bulk SL and the\nvictim on the "
          "latency SL: per-class pause frames stop the bulk lane without "
          "gating\nthe victim's. Part 2: a striped ring all-reduce (bulk) "
          "saturates a lossless 1x\nspine trunk while a latency victim "
          "shares it; the VL arbiter's high-priority\ntable lets the victim "
          "overtake at every hop. p50/p99 columns are the victim's.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "pauses", "bulk_MBps",
       "victim_MBps"},
      print_isolation_summary);
}
