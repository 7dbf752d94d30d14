#pragma once
// Summary math for host timings and simulated samples: order statistics with
// linear interpolation between closest ranks (numpy's default), and the
// quartile spread the benchmark's steadiness check is stated in.

#include <cstddef>
#include <vector>

namespace simbench {

/// The p-th percentile (0..100) of `values`, interpolating linearly between
/// the two closest ranks. 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

struct Summary {
  std::size_t n = 0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  /// (p75 - p25) / median; 0 when the median is 0.
  [[nodiscard]] double rel_iqr() const noexcept {
    return median == 0.0 ? 0.0 : (p75 - p25) / median;
  }
};

[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// Percentage of `values` strictly above `limit` (the SLA violation share,
/// counted the way cluster::run_cluster_scenario counts it).
[[nodiscard]] double pct_above(const std::vector<double>& values, double limit);

}  // namespace simbench
