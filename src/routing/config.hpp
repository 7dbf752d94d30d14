#pragma once
// Knob bundle for resex::routing: multipath forwarding on the switch fabric.
//
// Three modes:
//  - static    every (src, dst) pair forwards over the first installed
//    candidate — exactly the historical single-trunk routing, byte-identical.
//  - ecmp      a deterministic flow-consistent hash over (QP, SL) picks among
//    the equal-cost candidates a switch holds for the destination. One flow
//    always hashes to one path, so per-QP delivery order is preserved; the
//    seed de-correlates the hash across runs (and against unlucky QP-number
//    alignments) without any RNG on the forwarding path.
//  - adaptive  a flow is (re-)placed on the least-loaded candidate port at
//    flow start (the first packet of each transfer), and moved off a paused
//    port mid-flow when an unpaused candidate exists (ECN/pause feedback).
//    Every decision reads deterministic fabric state, so runs stay
//    byte-identical at any --jobs.
//
// vl_shift is the deadlock-freedom knob (needs resex::qos lanes): transfers
// whose route crosses the wrap-around edge of the switch order — the edge
// that closes a cycle, e.g. the striped-ring all-reduce's last hop — travel
// on the next virtual lane end-to-end, which breaks the cyclic per-lane
// buffer dependency that deadlocks PFC on cyclic routes (DESIGN.md §11).

#include <cstdint>
#include <string_view>

namespace resex::fabric {
struct FabricConfig;
}

namespace resex::routing {

enum class RouteMode : std::uint8_t { kStatic = 0, kEcmp = 1, kAdaptive = 2 };

[[nodiscard]] const char* to_string(RouteMode mode) noexcept;

/// Parse "static" | "ecmp" | "adaptive"; throws std::invalid_argument.
[[nodiscard]] RouteMode parse_route_mode(std::string_view text);

/// Flow-consistent ECMP hash: a splitmix64 finalizer over (qp, sl, seed).
/// Pure function of the flow identity, so the same flow always lands on the
/// same candidate index — the property the per-QP in-order guarantee rests
/// on. Cheap enough for the per-packet forwarding path (three multiplies).
[[nodiscard]] inline std::uint64_t ecmp_hash(std::uint32_t qp, std::uint8_t sl,
                                             std::uint64_t seed) noexcept {
  std::uint64_t x = (std::uint64_t{qp} << 8) ^ sl;
  x += seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct RoutingConfig {
  RouteMode mode = RouteMode::kStatic;
  /// Hash seed for ECMP (and the tie-free identity adaptive falls back to).
  std::uint64_t ecmp_seed = 1;
  /// Deadlock-free lane shifts on cyclic routes. Requires qos lanes with
  /// shift headroom (FabricConfig::reserve_shift_lane); validated by Fabric.
  bool vl_shift = false;

  [[nodiscard]] bool multipath() const noexcept {
    return mode != RouteMode::kStatic;
  }
  [[nodiscard]] bool any() const noexcept { return multipath() || vl_shift; }

  /// Copy these knobs into a fabric config and, with vl_shift, reserve the
  /// shift lane. Call it after the qos config has applied: the shift lane
  /// must sit *above* the SL->VL map, so no service level maps onto it.
  void apply(fabric::FabricConfig& fabric) const noexcept;
};

}  // namespace resex::routing
