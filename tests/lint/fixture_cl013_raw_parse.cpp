// lint-fixture-as: src/sim/fixture_raw_parse.cpp
// CL013: text becomes a number only through src/common/parse.hpp; the raw
// stdlib parsers skip whitespace and wrap " -1" to 2^64-1.
#include <cstdlib>
#include <string>

#include "src/common/parse.hpp"

namespace colscore {

std::uint64_t fixture_raw_parse(const std::string& text) {
  const std::uint64_t a = std::stoull(text);                // VIOLATION
  const double b = std::stod(text);                         // VIOLATION
  const std::uint64_t c = strtoull(text.c_str(), nullptr, 10);  // VIOLATION
  const std::optional<std::uint64_t> d = parse_u64(text);  // sanctioned: fine
  return a + static_cast<std::uint64_t>(b) + c + d.value_or(0);
}

}  // namespace colscore
