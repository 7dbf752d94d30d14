// Incast: N closed-loop senders RDMA-write 64KB blocks into one receiver
// through a single switch, so the receiver's downlink port is oversubscribed
// N:1. Three fabric modes at the same offered load:
//
//   lossless     infinite port buffers (the historical resex fabric): nothing
//                drops, latency is pure queueing at the hot port.
//   taildrop     finite buffers (--buf-pkts worth), no marking: full ports
//                drop, RC recovers via NAK/RTO, tails blow up with timeouts.
//   ecn+dcqcn    the same finite buffers plus ECN marking and DCQCN-style
//                per-QP rate control (resex::congestion): senders back off
//                before the buffer fills, so drops (and their tails) vanish.
//
// Runner-backed via generic points: modes x fan-in run in parallel (--jobs),
// replicated over derived seeds (--seeds), exported with --json/--csv.
// Per-trial results are byte-identical for any --jobs value.

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

/// N:1 incast through one switch. Returns {reqs, p50_us, p99_us, drops,
/// marks, retx, goodput_MBps}, drops and marks at the receiver's downlink.
std::vector<double> run_incast(std::uint32_t senders, const FabricMode& mode,
                               std::uint64_t seed) {
  ModeCluster mc({.nodes = senders + 1}, mode);
  const FlowResult r = run_flows(mc.cluster,
                                 {.flows = incast_flows(senders),
                                  .jitter_tag = 0x1ca5,
                                  .measure = 400_ms,
                                  .drain = 50_ms},
                                 seed);
  const sim::Samples lat = r.pooled();
  const auto& down = mc.cluster.hca(0).downlink();
  return {static_cast<double>(lat.count()),
          lat.median(),
          lat.percentile(99.0),
          static_cast<double>(down.buf_drops()),
          static_cast<double>(down.ecn_marks()),
          static_cast<double>(
              mc.cluster.sim().metrics().counter("fabric.retransmits").value()),
          r.mbps(r.window_bytes[0])};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex::bench;

  const auto opts = parse_generic_cli(argc, argv, kReadsBufPkts | kReadsEcn);

  // Headline comparison: same 64-packet port buffer for both lossy modes,
  // marking from 16 packets, hard-mark at 48. --buf-pkts/--ecn-kmin/
  // --ecn-kmax override the lossy rows.
  const StandardModes m = standard_modes(opts);

  std::vector<resex::runner::GenericPoint> points;
  for (const std::uint32_t senders : {4u, 8u, 16u}) {
    for (const FabricMode& mode : {m.lossless, m.taildrop, m.ecn}) {
      resex::runner::GenericPoint p;
      p.label = mode.name + " " + std::to_string(senders) + ":1";
      p.params = {{"mode", mode.name},
                  {"senders", std::to_string(senders)},
                  {"buf_pkts", std::to_string(mode.buf_pkts)}};
      p.run = [senders, mode](std::uint64_t seed) {
        return run_incast(senders, mode, seed);
      };
      points.push_back(std::move(p));
    }
  }

  int rc = run_generic_bench(
      opts, "Incast: finite buffers, ECN and DCQCN rate control",
      "N closed-loop senders RDMA-write 64KB blocks to one receiver through "
      "one switch;\nthe receiver downlink port is the N:1 bottleneck "
      "(" + m.describe() + ").",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "marks", "retx", "goodput_MBps"});

  std::cout << "\nWith tail-drop alone every overflow costs a NAK/RTO round "
               "and the p99\ncollapses; ECN marks ahead of the cliff and "
               "DCQCN throttles senders at\nthe source, holding the same "
               "goodput with (near-)zero drops.\n\n";

  // --- table 2: DCQCN parameter sensitivity at a fixed 8:1 fan-in ------------
  // One knob moves per row against the ecn+dcqcn baseline: the alpha EWMA
  // gain g (how hard a mark cuts), the CNP pacing interval (how often the
  // destination may complain), and the rate floor (how far a flow can be
  // squeezed). --json/--csv exports for this table get a ".dcqcn" infix so
  // they never clobber the headline table's files.
  const congestion::DcqcnConfig base_dcqcn{};
  struct Variant {
    std::string label;
    congestion::DcqcnConfig dcqcn;
  };
  std::vector<Variant> variants = {
      {"baseline (g=1/16 cnp=50us floor=1MB)", base_dcqcn}};
  for (const auto& [label, g] :
       {std::pair{std::string("g=1/4"), 1.0 / 4.0},
        std::pair{std::string("g=1/64"), 1.0 / 64.0}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.alpha_g = g;
    variants.push_back(std::move(v));
  }
  for (const auto& [label, us] : {std::pair{std::string("cnp=10us"), 10},
                                  std::pair{std::string("cnp=200us"), 200}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.cnp_interval = us * sim::kMicrosecond;
    variants.push_back(std::move(v));
  }
  // Fair share at 8:1 is ~128 MB/s: the first floor stays below it (should
  // be invisible), the second sits above it (8 x 192 MB/s oversubscribes the
  // port no matter what the controller does).
  for (const auto& [label, mb] : {std::pair{std::string("floor=64MB"), 64},
                                  std::pair{std::string("floor=192MB"), 192}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.min_rate = mb * 1024.0 * 1024.0;
    variants.push_back(std::move(v));
  }

  constexpr std::uint32_t kSweepSenders = 8;
  std::vector<resex::runner::GenericPoint> sweep_points;
  for (const Variant& v : variants) {
    FabricMode mode = m.ecn;
    mode.dcqcn = v.dcqcn;
    resex::runner::GenericPoint p;
    p.label = v.label;
    p.params = {{"mode", "ecn+dcqcn"},
                {"senders", std::to_string(kSweepSenders)},
                {"variant", v.label}};
    p.run = [mode](std::uint64_t seed) {
      return run_incast(kSweepSenders, mode, seed);
    };
    sweep_points.push_back(std::move(p));
  }

  const int rc2 = run_generic_bench(
      with_export_infix(opts, ".dcqcn"), "DCQCN parameter sweep (8:1 incast)",
      "Same finite-buffer incast, ecn+dcqcn mode only, one controller knob\n"
      "varied per row: alpha gain g, CNP pacing interval, and the rate "
      "floor.",
      std::move(sweep_points),
      {"reqs", "p50_us", "p99_us", "drops", "marks", "retx", "goodput_MBps"});
  if (rc == 0) rc = rc2;

  std::cout << "\nA hotter gain (g=1/4) cuts deeper per mark, a colder one "
               "(g=1/64) reacts\nslowly and lets the queue grow; sparse CNPs "
               "(200us) under-throttle and start\ndropping, dense ones "
               "(10us) over-throttle; a high rate floor defeats the\n"
               "controller outright and brings the tail-drop cliff back.\n";
  return rc;
}
