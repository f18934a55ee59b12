// Strict parsing of numeric command-line values.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace aalign::util {

// `text` as a T in [lo, hi], or nullopt. The whole text must be one
// number in std::from_chars syntax: no leading blanks or '+', no '-' for
// an unsigned T, nothing after the number. NaN is in no range.
template <class T>
std::optional<T> parse_number(std::string_view text, T lo, T hi) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace aalign::util
