#pragma once
// Sweep: a cartesian grid builder over core::ScenarioConfig. A bench
// declares axes ("cap_pct" over {100, 90, ...}, "policy" over {FreeMarket,
// IOShares}) and optional explicit extra points (the uncontended base case);
// points() materializes the grid in a fixed order so every run — serial or
// parallel — enumerates identical trials.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"

namespace resex::runner {

/// One displayed parameter assignment of a sweep point ("cap_pct" = "50").
struct Param {
  std::string name;
  std::string value;
};

/// One point of a sweep over any scenario config type.
template <typename Config>
struct ScenarioPoint {
  std::string label;          // human label for the table's first column
  std::vector<Param> params;  // machine-readable assignments for JSON/CSV
  Config config;
};

/// A two-node testbed point (core::ScenarioConfig).
using SweepPoint = ScenarioPoint<core::ScenarioConfig>;

class Sweep {
 public:
  using Apply = std::function<void(core::ScenarioConfig&)>;

  explicit Sweep(core::ScenarioConfig base) : base_(std::move(base)) {}

  /// Add a cartesian axis from explicit (value label, mutation) pairs.
  Sweep& axis(std::string name,
              std::vector<std::pair<std::string, Apply>> values);

  /// Numeric-axis convenience: labels rendered with sim::format_double.
  Sweep& axis(std::string name, const std::vector<double>& values,
              const std::function<void(core::ScenarioConfig&, double)>& apply);

  /// Append an explicit point after the grid (e.g. the base case).
  Sweep& point(std::string label, const Apply& apply);

  /// Materialize the grid — row-major, later axes varying fastest — followed
  /// by the explicit points in declaration order.
  [[nodiscard]] std::vector<SweepPoint> points() const;

 private:
  struct AxisValue {
    std::string label;
    Apply apply;
  };
  struct AxisDef {
    std::string name;
    std::vector<AxisValue> values;
  };

  core::ScenarioConfig base_;
  std::vector<AxisDef> axes_;
  std::vector<SweepPoint> extras_;
};

}  // namespace resex::runner
