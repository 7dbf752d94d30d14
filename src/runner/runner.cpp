#include "runner/runner.hpp"

namespace resex::runner {

std::vector<PointOutcome> run_sweep(std::vector<SweepPoint> points,
                                    const RunnerOptions& opts) {
  return run_sweep(std::move(points), opts, core::run_scenario);
}

std::vector<GenericOutcome> run_generic(std::vector<GenericPoint> points,
                                        const RunnerOptions& opts) {
  if (opts.seed.has_value()) {
    for (auto& p : points) p.seed = *opts.seed;
  }
  ThreadPool pool(opts.resolved_jobs());
  return Replicator(pool, opts.seeds).run_generic(points);
}

}  // namespace resex::runner
