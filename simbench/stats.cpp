#include "stats.hpp"

#include <algorithm>
#include <utility>

namespace simbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p25 = percentile(values, 25.0);
  s.median = percentile(values, 50.0);
  s.p75 = percentile(values, 75.0);
  return s;
}

double pct_above(const std::vector<double>& values, double limit) {
  if (values.empty()) return 0.0;
  const auto above = std::count_if(values.begin(), values.end(),
                                   [limit](double v) { return v > limit; });
  return 100.0 * static_cast<double>(above) /
         static_cast<double>(values.size());
}

}  // namespace simbench
