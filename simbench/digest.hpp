#pragma once
// A 64-bit FNV-1a digest over simulated outputs. Doubles are folded in by
// their bit pattern, so "same digest" means bit-identical model results.
// Host-side quantities (wall time, event and allocation counts) never go in.

#include <cstdint>
#include <string>
#include <string_view>

namespace simbench {

class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  void add(std::string_view s) noexcept;
  /// 16 lowercase hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  void byte(std::uint8_t b) noexcept {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace simbench
