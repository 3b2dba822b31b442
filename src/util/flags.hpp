// Strict flag parsing for the command-line tools and examples: every flag
// takes one value, a numeric value must parse in full as a decimal number,
// and anything else is an error (strtol and friends would read "abc" as 0
// and run anyway). Tools print a FlagError as one "error:" line and exit 2.
#pragma once

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mantis {

/// A malformed command line.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// The value after argv[i] (advancing i past it); throws if there is none.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw FlagError(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

/// `text` as a T; throws unless all of it is one number that fits in T.
template <class T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    throw FlagError(std::string(flag) + ": '" + text +
                    "' is not a valid number");
  }
  return value;
}

}  // namespace mantis
