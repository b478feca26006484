// Strict numeric flag values for the rse_* command-line tools.  A value must
// be the whole token — no sign, no surrounding space, no trailing text — and
// must lie in the flag's range.  Anything else ends the process with exit
// code 2 and a message naming the flag, never with an uncaught exception or
// a silently substituted default.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.hpp"

namespace rse::tools {

/// `text` as an unsigned integer: decimal, or hexadecimal after "0x".
inline std::optional<u64> parse_uint(std::string_view text) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  u64 value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

[[noreturn]] inline void bad_value(std::string_view flag, std::string_view text,
                                   const std::string& expected) {
  std::cerr << flag << " expects " << expected << ", got '" << text << "'\n";
  std::exit(2);
}

/// The integer value of `flag`, within [lo, hi] (by default the whole range
/// of T); exits 2 naming the flag otherwise.
template <class T>
T uint_arg(std::string_view flag, std::string_view text, T lo = 0,
           T hi = std::numeric_limits<T>::max()) {
  const std::optional<u64> value = parse_uint(text);
  if (!value || *value < lo || *value > hi) {
    bad_value(flag, text,
              "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<T>(*value);
}

/// The real value of `flag`, within [lo, hi]; exits 2 naming the flag
/// otherwise (NaN and infinities never qualify).
inline double real_arg(std::string_view flag, std::string_view text, double lo, double hi) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || stop != end || !(value >= lo && value <= hi)) {
    std::ostringstream expected;
    expected << "a number in [" << lo << ", " << hi << "]";
    bad_value(flag, text, expected.str());
  }
  return value;
}

/// `text` split at the first `sep`, for values shaped like `shape` ("A:B");
/// exits 2 naming the flag when there is no separator.
inline std::pair<std::string_view, std::string_view> split_arg(std::string_view flag,
                                                               std::string_view text, char sep,
                                                               const std::string& shape) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) bad_value(flag, text, shape);
  return {text.substr(0, at), text.substr(at + 1)};
}

}  // namespace rse::tools
