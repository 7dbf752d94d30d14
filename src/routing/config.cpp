#include "routing/config.hpp"

#include <stdexcept>
#include <string>

#include "fabric/types.hpp"

namespace resex::routing {

const char* to_string(RouteMode mode) noexcept {
  switch (mode) {
    case RouteMode::kStatic: return "static";
    case RouteMode::kEcmp: return "ecmp";
    case RouteMode::kAdaptive: return "adaptive";
  }
  return "?";
}

RouteMode parse_route_mode(std::string_view text) {
  if (text == "static") return RouteMode::kStatic;
  if (text == "ecmp") return RouteMode::kEcmp;
  if (text == "adaptive") return RouteMode::kAdaptive;
  throw std::invalid_argument("unknown routing mode '" + std::string(text) +
                              "' (expected static|ecmp|adaptive)");
}

void RoutingConfig::apply(fabric::FabricConfig& fabric) const noexcept {
  fabric.routing = *this;
  if (vl_shift) fabric.reserve_shift_lane();
}

}  // namespace resex::routing
