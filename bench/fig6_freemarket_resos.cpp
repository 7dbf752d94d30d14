// Figure 6: FreeMarket performance with rated capping — both VMs' Resos
// balances and CPU caps across the intervals of an epoch.
//
// Paper result: the 2MB VM burns through its allocation well before the
// epoch ends and its cap is stepped down once the 10% watermark is crossed;
// the 64KB VM stays solvent at full cap; both replenish at the epoch
// boundary.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 6: Resos balances and caps during FreeMarket",
      "Interval-by-interval ledger state (sampled every 25 intervals); "
      "epoch = 1000 intervals of 1 ms.");

  auto cfg = figure_config();
  cfg.duration = 2000_ms;  // two epochs to show the replenish sawtooth
  cfg.policy = core::PolicyKind::kFreeMarket;
  cfg.baseline_mean_us = 150.0;
  const auto r = core::run_scenario(cfg);

  sim::Table table({"interval", "resos_64KB", "cap_64KB", "resos_2MB",
                    "cap_2MB"});
  double rep_resos = 0.0, rep_cap = 0.0;
  std::uint64_t interval = 0;
  sim::SimTime next_sample = 0;
  for (const auto& rec : r.timeline) {
    if (rec.vm == r.reporting_vm_id) {
      rep_resos = rec.resos_balance;
      rep_cap = rec.cap;
    }
    if (rec.vm == r.interferer_vm_id) {
      ++interval;
      if (rec.at >= next_sample) {
        table.add_row({num(interval), num(rep_resos), num(rep_cap),
                       num(rec.resos_balance), num(rec.cap)});
        next_sample = rec.at + 25 * sim::kMillisecond;
      }
    }
  }
  table.print(std::cout);

  // Sanity: the epoch allocations the paper derives in Section VI-A.
  std::cout << "\nPer-epoch allocations: CPU 100,000 Resos per VM; I/O "
               "1,048,576 Resos shared across "
            << 2 << " VMs.\n";
  return 0;
}
