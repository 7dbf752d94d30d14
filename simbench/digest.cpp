#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace simbench {

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) noexcept {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<std::uint8_t>(c));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace simbench
