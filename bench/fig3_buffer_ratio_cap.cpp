// Figure 3: reporting-server latency when the interfering VM's CPU cap is
// set according to the buffer ratio (cap = 100 / BR), across interferer
// buffer sizes from 2MB down to 64KB.
//
// Paper result: with cap = 100/BR the reporting VM's latency is essentially
// flat across the sweep (equal to the 1x case), establishing the direct
// relationship between CPU cap, buffer ratio and I/O latency that ResEx's
// pricing exploits.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 3: Latency with interferer capped at 100/BufferRatio",
      "Reporting VM: 64KB. Interferer buffer swept 2MB..64KB; its CPU cap "
      "is set to 100/BR (e.g. 256KB -> BR=4 -> cap 25%). No ResEx policy.");

  const std::uint32_t kReporting = 64 * 1024;
  sim::Table table({"io_ratio", "intf_buffer", "cap_pct", "CTime_us",
                    "WTime_us", "PTime_us", "total_us"});
  for (const std::uint32_t buf :
       {2u * 1024 * 1024, 1024u * 1024, 512u * 1024, 256u * 1024,
        128u * 1024, 64u * 1024}) {
    const double ratio = static_cast<double>(buf) / kReporting;
    auto cfg = figure_config();
    cfg.intf_buffer = buf;
    cfg.intf_cap = 100.0 / ratio;
    // The interfering VM is a second paced application instance (not a raw
    // saturator): ~300 us of client think time per request, as when two
    // BenchEx deployments share the node (the BR=1 column must equal base).
    cfg.intf_think_us = 300.0;
    const auto r = core::run_scenario(cfg);
    const auto& vm = r.reporting[0];
    table.add_row({txt(std::to_string(static_cast<int>(ratio)) + "(" +
                       buffer_name(buf) + ")"),
                   txt(buffer_name(buf)), num(cfg.intf_cap),
                   num(vm.ctime_us), num(vm.wtime_us), num(vm.ptime_us),
                   num(vm.total_us)});
  }

  // Reference: the base (no interferer) decomposition.
  auto base_cfg = figure_config();
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  table.add_row({txt("base"), txt("-"), num(100.0),
                 num(base.reporting[0].ctime_us),
                 num(base.reporting[0].wtime_us),
                 num(base.reporting[0].ptime_us),
                 num(base.reporting[0].total_us)});
  table.print(std::cout);
  return 0;
}
