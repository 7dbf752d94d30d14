#pragma once
// The benchmark's metric catalogue (the names BENCHMARK.json lists) and the
// result line every run ends with.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

/// What a user of the simulator sees: host speed and simulated results.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Single layers: exact counts, probe costs and span-derived host times.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// JSON text for a finite number with all its digits (non-finite -> null).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
/// Every metric of `defs` appears; one missing from `values` is an error
/// the caller must have reported as a failure (it prints as null).
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<MetricDef>& defs,
                                      const std::map<std::string, double>& values);

}  // namespace simbench
