// Figure 5: SLA performance of FreeMarket — the 64KB VM's latency over time
// under the FreeMarket policy, against the base and interfered references,
// together with the CPU cap ResEx applies to the 2MB VM.
//
// Paper result: FreeMarket brings latency below the interfered level
// (capping kicks in whenever the 2MB VM's Resos run low near the epoch
// end) but does not reach the base case — it has no latency feedback.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 5: FreeMarket SLA timeline",
      "64KB reporting VM vs 2MB interferer under the FreeMarket policy. "
      "latency_us is the in-VM agent's window mean.");

  auto base_cfg = figure_config();
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  const auto intf = core::run_scenario(figure_config());

  auto cfg = figure_config();
  cfg.duration = 2000_ms;  // two full epochs
  cfg.policy = core::PolicyKind::kFreeMarket;
  cfg.baseline_mean_us = base.reporting[0].total_us;
  const auto fm = core::run_scenario(cfg);

  std::cout << "reference base latency 64KB VM     : "
            << base.reporting[0].total_us << " us\n";
  std::cout << "reference interfered latency 64KB VM: "
            << intf.reporting[0].total_us << " us\n\n";

  sim::Table table({"t_ms", "fm_latency_64KB_us", "cap_2MB_pct",
                    "resos_2MB"});
  sim::SimTime next_sample = 0;
  double last_lat = 0.0;
  for (const auto& rec : fm.timeline) {
    if (rec.vm == fm.reporting_vm_id) last_lat = rec.agent_mean_us;
    if (rec.vm == fm.interferer_vm_id && rec.at >= next_sample) {
      table.add_row({num(sim::to_ms(rec.at)), num(last_lat), num(rec.cap),
                     num(rec.resos_balance)});
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
  s.add_row({txt("freemarket"), num(fm.reporting[0].client_mean_us),
             num(fm.reporting[0].total_us), num(fm.interferer_mbps)});
  s.print(std::cout);
  return 0;
}
