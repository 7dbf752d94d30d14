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
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

/// Part 1: 8:1 incast through one switch, as fig_incast but with a PFC row.
/// Returns {reqs, p50_us, p99_us, drops, pauses, goodput_MBps, victim_MBps,
/// victim_p99_us} (the victim columns are 0 here — no victim flow).
std::vector<double> run_incast(std::uint32_t senders, const FabricMode& mode,
                               std::uint64_t seed) {
  ModeCluster mc({.nodes = senders + 1}, mode);
  const FlowResult r = run_flows(mc.cluster,
                                 {.flows = incast_flows(senders),
                                  .jitter_tag = 0x9fc,
                                  .measure = 300_ms,
                                  .drain = 50_ms},
                                 seed);
  const sim::Samples lat = r.pooled();
  const auto& down = mc.cluster.hca(0).downlink();
  return {static_cast<double>(lat.count()),
          lat.median(),
          lat.percentile(99.0),
          static_cast<double>(down.buf_drops()),
          static_cast<double>(down.pauses_sent()),
          r.mbps(r.window_bytes[0]),
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
std::vector<double> run_fat_tree(const FabricMode& mode, std::uint64_t seed) {
  ModeCluster mc(hol_fat_tree(), mode);
  const FlowResult r = run_flows(mc.cluster, hol_workload(3, 0), seed);
  const sim::Samples lat = r.pooled(1);
  auto& metrics = mc.cluster.sim().metrics();
  return {static_cast<double>(lat.count()),
          lat.median(),
          lat.percentile(99.0),
          static_cast<double>(metrics.counter("fabric.buf_drops").value()),
          static_cast<double>(metrics.counter("fabric.pfc_pauses").value()),
          r.mbps(r.window_bytes[4]),
          r.mbps(r.window_bytes[5]),
          r.latency_us[0].percentile(99.0)};
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

  const auto opts = parse_generic_cli(
      argc, argv, kReadsRunner | kReadsBufPkts | kReadsEcn);
  const StandardModes m = standard_modes(opts);

  std::vector<resex::runner::GenericPoint> points;
  constexpr std::uint32_t kIncastSenders = 8;
  for (const FabricMode& mode : {m.lossless, m.taildrop, m.ecn, m.pfc}) {
    resex::runner::GenericPoint p;
    p.label = "incast " + mode.name + " 8:1";
    p.params = {{"part", "incast"}, {"mode", mode.name}};
    p.run = [mode](std::uint64_t seed) {
      return run_incast(kIncastSenders, mode, seed);
    };
    points.push_back(std::move(p));
  }
  for (const FabricMode& mode : {m.lossless, m.ecn, m.pfc}) {
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
      "receiver through one\nswitch (" + m.describe() +
          "; PFC XOFF/XON at 60%/30% of the "
          "buffer).\nPart 2: 3 aggressors on leaf 0 incast into leaf 1 over "
          "a 2-tier fat-tree while a\nvictim flow (leaf 0 -> leaf 1, "
          "different hosts) shares only the fat trunks;\nvictim_MBps shows "
          "what PFC's pause tree (HoL blocking) costs it.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "pauses", "goodput_MBps",
       "victim_MBps", "victim_p99_us"},
      print_hol_summary);
}
