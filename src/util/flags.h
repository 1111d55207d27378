#ifndef HISRECT_UTIL_FLAGS_H_
#define HISRECT_UTIL_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>

namespace hisrect::util {

/// Strict numeric command-line flag values, shared by the tools. A value is
/// accepted only when the whole string is the number — no sign, no
/// whitespace, no trailing characters — and it lies in the flag's range;
/// nothing is clamped or wrapped. On rejection these print
/// "<program>: <flag> must be ..., got '<text>'" to stderr and return
/// nullopt; the tools then exit 2.

/// Bounds shared by the tools' flags.
inline constexpr uint64_t kMaxCountFlag = 1000000000;  // steps, sizes, ...
inline constexpr uint64_t kMaxThreadsFlag = 1024;      // threads and shards
inline constexpr double kMaxScaleFlag = 100.0;         // --scale

/// A decimal integer in [min, max].
std::optional<uint64_t> ParseUintFlag(const char* program,
                                      const std::string& flag,
                                      const char* text, uint64_t min,
                                      uint64_t max);

/// A finite decimal number in (0, max].
std::optional<double> ParsePositiveFlag(const char* program,
                                        const std::string& flag,
                                        const char* text, double max);

}  // namespace hisrect::util

#endif  // HISRECT_UTIL_FLAGS_H_
