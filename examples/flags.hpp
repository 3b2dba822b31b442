// Strict flag parsing for the example CLIs: every flag takes one value, a
// numeric value must parse in full, and anything else is an error (strtol
// and friends would read "abc" as 0 and run anyway).
#pragma once

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mantis::examples {

/// The value after argv[i] (advancing i past it); throws if there is none.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw std::invalid_argument(std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

/// `text` as a T; throws unless all of it is one number that fits in T.
template <class T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(flag) + ": '" + text +
                                "' is not a valid number");
  }
  return value;
}

}  // namespace mantis::examples
