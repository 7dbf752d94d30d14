// Multipath routing (resex::routing) on the 2-tier fat-tree.
//
// Table 1 — trunk spreading: cross-leaf incast (8 senders on leaf 0, one
// receiver on leaf 1) and cross-leaf all-to-all (4 hosts per leaf, every
// cross-leaf pair active) over 4 parallel 1x spine trunks, comparing
//
//   static     every (src,dst) pair rides the one destination-indexed spine:
//              the whole leaf's cross traffic serializes on a single trunk
//              while three sit idle.
//   ecmp       a flow-consistent hash over (QP, SL) spreads flows across all
//              equal-cost spines; per-QP order is preserved.
//   adaptive   flows are placed on the least-loaded candidate trunk at flow
//              start (and escape paused trunks): the spread follows load,
//              not hash luck.
//
// Reported per row: pooled per-write p50/p99, the *maximum* per-trunk
// utilization over the measure window (the acceptance figure: multipath must
// sit strictly below static's ~100% hot trunk at 8:1), the number of trunks
// that carried traffic, and the adaptive rehash count.
//
// Table 2 — deadlock freedom: the striped-ring PFC all-reduce from
// bench_fig_allreduce (every ring edge crosses the oversubscribed trunk,
// pause trees close a cyclic buffer dependency, the fabric deadlocks and the
// RC retry budget aborts the group). With --vl-shift semantics (routing
// lane shifts + qos lanes) the wrap-direction transfers ride one virtual
// lane up, the per-lane pause graph is acyclic, and the same ring completes
// lossless.
//
// Per-trial results are byte-identical for any --jobs value.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 400_ms;
constexpr std::uint32_t kSpines = 4;

std::vector<double> run_spread(bool alltoall, routing::RouteMode mode,
                               std::uint64_t ecmp_seed, std::uint64_t seed) {
  // 8:1: hosts 0..7 on leaf 0 incast host 8 on leaf 1. all-to-all: 4 hosts
  // per leaf, every cross-leaf ordered pair active (16 flows each way).
  cluster::ClusterConfig cfg;
  cfg.nodes = alltoall ? 8 : 9;
  // Each endpoint auto-pins its domain to a free PCPU; all-to-all hosts
  // 4 send + 1 recv endpoints per node.
  cfg.pcpus_per_node = alltoall ? 6 : 2;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = alltoall ? 4 : 8;
  cfg.spines = kSpines;
  cfg.trunk_bandwidth_scale = 1.0;
  cfg.fabric.routing.mode = mode;
  cfg.fabric.routing.ecmp_seed = ecmp_seed;
  cluster::Cluster cluster(cfg);

  FlowWorkload wl{.jitter_tag = 0x707e, .measure = kMeasure};
  if (alltoall) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = 4; j < 8; ++j) {
        wl.flows.push_back({i, j});
        wl.flows.push_back({j, i});
      }
    }
  } else {
    for (std::uint32_t i = 0; i < 8; ++i) wl.flows.push_back({i, 8});
  }
  // Per-trunk busy-time snapshot at the end of warmup: utilization is
  // measured over the steady window only.
  std::vector<sim::SimDuration> busy_at_warmup;
  std::vector<std::uint64_t> bytes_at_warmup;
  wl.at_warmup = [&] {
    cluster.fabric().for_each_trunk(
        [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
          busy_at_warmup.push_back(ch.busy_time());
          bytes_at_warmup.push_back(ch.bytes_sent());
        });
  };
  const sim::Samples pooled = run_flows(cluster, wl, seed).pooled();

  double max_util = 0.0;
  std::uint32_t trunks_used = 0;
  std::size_t idx = 0;
  cluster.fabric().for_each_trunk(
      [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
        const double util =
            static_cast<double>(ch.busy_time() - busy_at_warmup[idx]) /
            static_cast<double>(kMeasure);
        max_util = std::max(max_util, util);
        if (ch.bytes_sent() > bytes_at_warmup[idx]) ++trunks_used;
        ++idx;
      });
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          max_util,
          static_cast<double>(trunks_used),
          static_cast<double>(
              cluster.sim().metrics().counter("fabric.route_rehash").value())};
}

/// The striped-ring PFC all-reduce (bench_fig_allreduce's deadlock case),
/// with and without routing lane shifts.
std::vector<double> run_ring(bool vl_shift, std::uint64_t seed) {
  collective::CollectiveConfig coll;
  coll.ranks = 8;
  coll.payload_bytes = 4u << 20;
  coll.chunk_bytes = 256 * 1024;
  coll.algorithm = collective::Algorithm::kRingAllReduce;
  const RingOutcome out = run_ring_trial(
      cluster::TopologyKind::kFatTree,
      {.buf_pkts = 64, .pfc = true, .vl_shift = vl_shift}, coll, "", seed,
      3'000_ms);
  const bool ok = out.finished && out.result.ok;
  const double t_ms =
      ok ? static_cast<double>(out.result.finished_at -
                               out.result.started_at) /
               1e6
         : 0.0;
  return {ok ? 1.0 : 0.0, t_ms, out.drops, out.pauses, out.retx};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex::bench;

  const auto opts = parse_generic_cli(argc, argv, kReadsEcmpSeed);
  const std::uint64_t ecmp_seed = opts.routing.ecmp_seed;

  struct ModeRow {
    std::string name;
    resex::routing::RouteMode mode;
  };
  const std::vector<ModeRow> modes = {
      {"static", resex::routing::RouteMode::kStatic},
      {"ecmp", resex::routing::RouteMode::kEcmp},
      {"adaptive", resex::routing::RouteMode::kAdaptive},
  };

  std::vector<resex::runner::GenericPoint> points;
  for (const bool alltoall : {false, true}) {
    for (const ModeRow& m : modes) {
      resex::runner::GenericPoint p;
      p.label = std::string(alltoall ? "alltoall" : "8:1") + " " + m.name;
      p.params = {{"pattern", alltoall ? "alltoall" : "incast8"},
                  {"mode", m.name},
                  {"spines", std::to_string(kSpines)}};
      p.run = [alltoall, m, ecmp_seed](std::uint64_t seed) {
        return run_spread(alltoall, m.mode, ecmp_seed, seed);
      };
      points.push_back(std::move(p));
    }
  }

  int rc = run_generic_bench(
      opts, "Multipath fat-tree routing: static vs ECMP vs adaptive",
      "Cross-leaf incast (8:1) and all-to-all over " +
          std::to_string(kSpines) +
          " parallel 1x spine trunks.\nmax_trunk_util is the hottest trunk's "
          "busy fraction over the measure window;\nstatic serializes a "
          "leaf's cross traffic on one spine, multipath spreads it.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "max_trunk_util", "trunks_used",
       "rehash"});

  std::cout << "\nStatic pins every (src-leaf, dst-leaf) pair to one "
               "destination-indexed spine:\nthe hot trunk saturates while "
               "its three siblings idle. ECMP hashes flows\nacross the "
               "candidate set (per-QP order intact); adaptive places each "
               "flow on\nthe least-loaded trunk at flow start, so the spread "
               "follows load rather than\nhash luck (rehash counts its "
               "mid-run moves).\n\n";

  // --- table 2: PFC deadlock vs lane shifts ---------------------------------
  std::vector<resex::runner::GenericPoint> ring_points;
  for (const bool shift : {false, true}) {
    resex::runner::GenericPoint p;
    p.label = shift ? "striped-ring pfc+vlshift" : "striped-ring pfc";
    p.params = {{"pattern", "ring"}, {"vl_shift", shift ? "1" : "0"}};
    p.run = [shift](std::uint64_t seed) { return run_ring(shift, seed); };
    ring_points.push_back(std::move(p));
  }
  const int rc2 = run_generic_bench(
      with_export_infix(opts, ".ring"), "Striped-ring PFC all-reduce: lane shifts break the deadlock",
      "8 ranks striped across two leaves over a single 1x trunk, PFC on,\n"
      "4MiB ring all-reduce (every step overflows the trunk buffers).",
      std::move(ring_points), {"ok", "time_ms", "drops", "pauses", "retx"});
  if (rc == 0) rc = rc2;

  std::cout << "\nPlain PFC turns the striped ring's cyclic route into a "
               "cyclic pause\ndependency: the fabric deadlocks and the RC "
               "retry budget aborts the group\n(ok=0). With lane shifts the "
               "wrap-direction transfers ride one virtual lane\nup, the "
               "per-lane dependency graph is acyclic, and the same ring "
               "completes\nlossless (ok=1, drops=0).\n";
  return rc;
}
