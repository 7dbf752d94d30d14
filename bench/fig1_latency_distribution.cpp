// Figure 1: distribution of request latencies for a normal server versus a
// server interfered by a collocated bulk-transfer VM (no ResEx).
//
// Paper result: the normal server's latencies concentrate tightly around
// ~209 us; under interference the distribution shifts right and spreads
// across the whole interval (some requests even complete slightly faster
// than the mode when they happen to see no contention).

#include "bench_common.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 1: Distribution of request latencies, normal vs interfered",
      "64KB reporting VM; interference: 2MB VM, closed loop; no ResEx.");

  auto base_cfg = figure_config();
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  const auto intf = core::run_scenario(figure_config());

  const auto& normal = base.reporting[0].client_latency_us;
  const auto& interfered = intf.reporting[0].client_latency_us;

  const double lo = 150.0, hi = 450.0;
  constexpr std::size_t kBins = 24;
  sim::Histogram h_norm(lo, hi, kBins), h_intf(lo, hi, kBins);
  for (double v : normal.values()) h_norm.add(v);
  for (double v : interfered.values()) h_intf.add(v);

  sim::Table table({"latency_us", "count_normal", "count_interfered"});
  for (std::size_t b = 0; b < kBins; ++b) {
    table.add_row({num(h_norm.bin_center(b)), num(h_norm.bin(b)),
                   num(h_intf.bin(b))});
  }
  table.print(std::cout, 1);

  std::cout << "\nSummary:\n";
  sim::Table s({"series", "mean_us", "stddev_us", "p1_us", "p99_us", "n"});
  s.add_row({txt("normal"), num(normal.mean()), num(normal.stddev()),
             num(normal.percentile(1.0)), num(normal.percentile(99.0)),
             num(std::uint64_t{normal.count()})});
  s.add_row({txt("interfered"), num(interfered.mean()),
             num(interfered.stddev()), num(interfered.percentile(1.0)),
             num(interfered.percentile(99.0)),
             num(std::uint64_t{interfered.count()})});
  s.print(std::cout);
  return 0;
}
