#pragma once
// The machine record printed with every result: comparisons are only valid
// between runs with the same compiler and build type on the same machine.

#include <cstdint>
#include <string>

namespace simbench {

struct MachineRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  double loadavg_1m = 0.0;  // at start
  std::uint64_t seed = 0;
};

[[nodiscard]] MachineRecord machine_record(std::uint64_t seed);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace simbench
