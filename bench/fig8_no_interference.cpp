// Figure 8: performance of FreeMarket and IOShares in the non-interference
// cases: (a) a second identical 64KB VM, and (b) the 2MB VM issuing only ~10
// requests per epoch.
//
// Paper result: all configurations sit at the base 64KB latency — ResEx
// detects interference but also backs off when there is none, and does not
// penalize VMs doing the same amount of I/O.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;
  (void)parse_generic_cli(argc, argv, kReadsNone);

  print_scenario_header(
      "Figure 8: FreeMarket and IOShares on non-interference cases",
      "Average total I/O latency of the reporting 64KB VM per "
      "configuration; all should match Base-64KB.");

  auto base_cfg = figure_config();
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  const double baseline_total = base.reporting[0].total_us;

  sim::Table table({"configuration", "total_us", "client_us",
                    "vs_base_pct"});
  auto add = [&](const std::string& name, const core::ScenarioResult& r) {
    const auto& vm = r.reporting[0];
    table.add_row({txt(name), num(vm.total_us), num(vm.client_mean_us),
                   num((vm.total_us / baseline_total - 1.0) * 100.0)});
  };
  add("Base-64KB", base);

  for (const auto policy :
       {core::PolicyKind::kFreeMarket, core::PolicyKind::kIOShares}) {
    const std::string tag =
        policy == core::PolicyKind::kFreeMarket ? "FM" : "IOS";
    // Case 1: 64KB + 64KB (same I/O on both sides).
    auto twin = figure_config();
    twin.intf_buffer = 64 * 1024;
    twin.intf_rate = 2000.0;
    twin.policy = policy;
    twin.baseline_mean_us = baseline_total;
    add(tag + "-64KB-64KB", core::run_scenario(twin));

    // Case 2: 2MB VM at ~10 requests/s (negligible interference).
    auto slow = figure_config();
    slow.intf_rate = 10.0;
    slow.policy = policy;
    slow.baseline_mean_us = baseline_total;
    add(tag + "-64KB-2MB-NoIntf", core::run_scenario(slow));
  }
  table.print(std::cout);
  return 0;
}
