// Figure 7: SLA performance of IOShares — the 64KB VM's latency over time
// under the congestion-pricing policy, with the dynamically computed CPU
// cap of the 2MB VM.
//
// Paper result: IOShares achieves near-base latencies by charging the
// congesting VM more (each VM reports its latencies to ResEx at ~10 us per
// report, which is included in the plotted latency).

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 7: IOShares SLA timeline",
      "64KB reporting VM vs 2MB interferer under the IOShares policy.");

  auto base_cfg = figure_config();
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  const auto intf = core::run_scenario(figure_config());

  auto cfg = figure_config();
  cfg.duration = 2000_ms;
  cfg.policy = core::PolicyKind::kIOShares;
  cfg.baseline_mean_us = base.reporting[0].total_us;
  const auto ios = core::run_scenario(cfg);

  std::cout << "reference base latency 64KB VM      : "
            << base.reporting[0].total_us << " us\n";
  std::cout << "reference interfered latency 64KB VM: "
            << intf.reporting[0].total_us << " us\n\n";

  sim::Table table({"t_ms", "ios_latency_64KB_us", "cap_2MB_pct",
                    "charge_rate_2MB", "intf_pct"});
  sim::SimTime next_sample = 0;
  double last_lat = 0.0, last_intf_pct = 0.0;
  for (const auto& rec : ios.timeline) {
    if (rec.vm == ios.reporting_vm_id) {
      last_lat = rec.agent_mean_us;
      last_intf_pct = rec.intf_pct;
    }
    if (rec.vm == ios.interferer_vm_id && rec.at >= next_sample) {
      table.add_row({num(sim::to_ms(rec.at)), num(last_lat), num(rec.cap),
                     num(rec.charge_rate), num(last_intf_pct)});
      next_sample = rec.at + 50 * sim::kMillisecond;
    }
  }
  table.print(std::cout);

  std::cout << "\nSummary (client round-trip means):\n";
  sim::Table s({"series", "client_us", "server_total_us", "intf_MBps"});
  s.add_row({txt("base"), num(base.reporting[0].client_mean_us),
             num(base.reporting[0].total_us), num(0.0)});
  s.add_row({txt("interfered"), num(intf.reporting[0].client_mean_us),
             num(intf.reporting[0].total_us), num(intf.interferer_mbps)});
  s.add_row({txt("ioshares"), num(ios.reporting[0].client_mean_us),
             num(ios.reporting[0].total_us), num(ios.interferer_mbps)});
  s.print(std::cout);
  return 0;
}
