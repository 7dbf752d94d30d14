#include "machine.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <thread>

namespace simbench {

MachineRecord machine_record(std::uint64_t seed) {
  MachineRecord m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto start = line.find_first_not_of(" \t:", line.find(':'));
      if (start != std::string::npos) m.cpu_model = line.substr(start);
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
  m.compiler = SIMBENCH_COMPILER;
  m.build_type = SIMBENCH_BUILD_TYPE;
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) m.loadavg_1m = load[0];
  m.seed = seed;
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace simbench
