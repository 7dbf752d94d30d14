#pragma once
// Allocation counting: this binary replaces the global operator new, and
// every call bumps a per-thread counter. Only the benchmark links this file,
// so the simulator libraries are measured as they are.

#include <cstdint>

namespace simbench {

/// Calls to any global operator new made so far by the calling thread.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

}  // namespace simbench
