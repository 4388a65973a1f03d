// Strict number parsing: the one place untrusted text becomes a number.
//
// CLI flags, scenario overrides, suite-file counts, fault specs and resumed
// artifact cells all go through these two functions, so every input format
// accepts exactly the same spellings. Both read the *whole* text with
// std::from_chars: no leading or trailing whitespace, no '+' sign, no hex,
// no trailing junk, no overflow. Callers own their error text and range
// checks (a count that must be positive, a duration that must be finite).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace colscore {

/// Unsigned decimal ("152489"). A '-' is rejected, never wrapped to 2^64-1.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

/// Decimal float ("0.25", "-3", "1e-300"). The non-finite spellings the
/// metric formatter emits ("nan", "inf", "-inf") parse too.
inline std::optional<double> parse_f64(std::string_view text) {
  double out = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

}  // namespace colscore
