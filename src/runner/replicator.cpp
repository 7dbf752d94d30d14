#include "runner/replicator.hpp"

#include <cmath>
#include <utility>

#include "sim/stats.hpp"

namespace resex::runner {

double student_t95(std::size_t df) {
  // Two-sided 95% critical values; df >= 31 is within 3% of the normal 1.96.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

Aggregate aggregate(const std::vector<double>& values) {
  Aggregate a;
  a.n = values.size();
  if (values.empty()) return a;
  sim::Samples s;
  s.reserve(values.size());
  for (const double v : values) s.add(v);
  a.mean = s.mean();
  a.stddev = s.stddev();
  a.p50 = s.percentile(50.0);
  a.p99 = s.percentile(99.0);
  if (a.n >= 2) {
    a.ci95 = student_t95(a.n - 1) * a.stddev /
             std::sqrt(static_cast<double>(a.n));
  }
  return a;
}

Replicator::Replicator(ThreadPool& pool, std::size_t seeds, ObsOptions obs)
    : pool_(&pool), seeds_(seeds == 0 ? 1 : seeds), obs_(std::move(obs)) {}

std::vector<GenericOutcome> Replicator::run_generic(
    const std::vector<GenericPoint>& points) const {
  const std::size_t n = points.size() * seeds_;
  std::vector<std::vector<double>> results(n);
  parallel_for(*pool_, n, [this, &points, &results](std::size_t i) {
    const auto& point = points[i / seeds_];
    const std::size_t replicate = i % seeds_;
    results[i] = point.run(sim::derive(point.seed, replicate));
  });

  std::vector<GenericOutcome> out;
  out.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    GenericOutcome go;
    go.label = points[p].label;
    go.params = points[p].params;
    for (std::size_t r = 0; r < seeds_; ++r) {
      go.seeds.push_back(sim::derive(points[p].seed, r));
      go.trial_values.push_back(std::move(results[p * seeds_ + r]));
    }
    out.push_back(std::move(go));
  }
  return out;
}

}  // namespace resex::runner
