#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace hisrect::util {

namespace {

// std::from_chars over the whole string: it takes no leading whitespace or
// '+', no '-' for unsigned types, and reports overflow instead of clamping.
template <typename T>
bool ParseWhole(const char* text, T* value) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::optional<uint64_t> ParseUintFlag(const char* program,
                                      const std::string& flag,
                                      const char* text, uint64_t min,
                                      uint64_t max) {
  uint64_t value = 0;
  if (!ParseWhole(text, &value) || value < min || value > max) {
    std::fprintf(stderr,
                 "%s: %s must be an integer in [%llu, %llu], got '%s'\n",
                 program, flag.c_str(), static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParsePositiveFlag(const char* program,
                                        const std::string& flag,
                                        const char* text, double max) {
  double value = 0.0;
  if (!ParseWhole(text, &value) || !std::isfinite(value) || !(value > 0.0) ||
      value > max) {
    std::fprintf(stderr, "%s: %s must be a number in (0, %g], got '%s'\n",
                 program, flag.c_str(), max, text);
    return std::nullopt;
  }
  return value;
}

}  // namespace hisrect::util
