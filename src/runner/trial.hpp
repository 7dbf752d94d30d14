#pragma once
// Trial results: one (scenario config, seed) run, positioned by (point,
// replicate) inside a sweep. Trials share no mutable state — each one builds
// its own simulation inside the scenario function — so any number of them
// can execute concurrently and still produce results identical to a serial
// run.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace resex::runner {

/// Outcome of one trial: the full scenario result plus the coordinates and
/// seed needed to reproduce it in isolation.
template <typename Result>
struct TrialResult {
  std::size_t index = 0;      // global position; fixes result ordering
  std::size_t point = 0;      // sweep-point index
  std::size_t replicate = 0;  // seed-replicate index within the point
  std::uint64_t seed = 0;     // the derived seed the trial ran with
  Result scenario;
};

/// A two-node testbed trial (core::run_scenario).
using ExperimentResult = TrialResult<core::ScenarioResult>;

/// Per-trial trace file path derived from a base path: trial (0, 0) gets
/// `base` verbatim (the single-trial case keeps the name the user asked
/// for); every other trial inserts ".p<point>r<replicate>" before the file
/// extension ("out.json" -> "out.p1r2.json"). Empty base stays empty.
[[nodiscard]] std::string trial_trace_path(const std::string& base,
                                           std::size_t point,
                                           std::size_t replicate);

}  // namespace resex::runner
