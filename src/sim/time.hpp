#pragma once

#include <cstdint>
#include <string_view>

namespace mcs {

/// Simulated time in integer nanoseconds. All subsystems share this clock.
using SimTime = std::uint64_t;

/// Duration in nanoseconds (same representation, separate name for intent).
using SimDuration = std::uint64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1'000;
inline constexpr SimDuration kMillisecond = 1'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000;

constexpr SimDuration nanoseconds(std::uint64_t n) { return n; }
constexpr SimDuration microseconds(std::uint64_t n) { return n * kMicrosecond; }
constexpr SimDuration milliseconds(std::uint64_t n) { return n * kMillisecond; }
constexpr SimDuration seconds(std::uint64_t n) { return n * kSecond; }

constexpr double to_seconds(SimDuration d) {
    return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double to_milliseconds(SimDuration d) {
    return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr double to_microseconds(SimDuration d) {
    return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

/// Converts a duration in (fractional) seconds to SimDuration, rounding to
/// the nearest nanosecond.
constexpr SimDuration from_seconds(double s) {
    return static_cast<SimDuration>(s * static_cast<double>(kSecond) + 0.5);
}

/// from_seconds for a duration from outside the program (a config key, a
/// query member): throws RequireError naming `key` unless `s` is positive
/// and its nanoseconds fit SimDuration.
SimDuration checked_from_seconds(double s, std::string_view key);

/// Number of clock cycles executed in `d` at frequency `hz`, rounded down.
constexpr std::uint64_t cycles_in(SimDuration d, double hz) {
    return static_cast<std::uint64_t>(to_seconds(d) * hz);
}

/// Time needed to execute `cycles` at frequency `hz`, rounded up to a whole
/// nanosecond so completion never lands before the work is truly done.
SimDuration duration_for_cycles(std::uint64_t cycles, double hz);

}  // namespace mcs
