// Virtual time. The whole system — packets, PCIe transactions, reaction CPU
// time — shares one clock so interleavings are deterministic and testable.
#pragma once

#include <cstdint>

namespace mantis {

/// Virtual time in nanoseconds since simulation start.
using Time = std::int64_t;

/// Duration in nanoseconds.
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1000;
constexpr Duration kMillisecond = 1000 * 1000;
constexpr Duration kSecond = 1000 * 1000 * 1000;

constexpr double to_us(Duration d) { return static_cast<double>(d) / kMicrosecond; }
constexpr double to_ms(Duration d) { return static_cast<double>(d) / kMillisecond; }

}  // namespace mantis
