#include "runner/trial.hpp"

namespace resex::runner {

std::string trial_trace_path(const std::string& base, std::size_t point,
                             std::size_t replicate) {
  if (base.empty() || (point == 0 && replicate == 0)) return base;
  const std::string tag =
      ".p" + std::to_string(point) + "r" + std::to_string(replicate);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + tag;  // no extension to preserve
  }
  return base.substr(0, dot) + tag + base.substr(dot);
}

}  // namespace resex::runner
