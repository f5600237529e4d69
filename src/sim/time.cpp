#include "sim/time.hpp"

#include <cmath>
#include <string>

#include "util/require.hpp"

namespace mcs {

SimDuration duration_for_cycles(std::uint64_t cycles, double hz) {
    MCS_REQUIRE(hz > 0.0, "frequency must be positive");
    const double ns =
        static_cast<double>(cycles) / hz * static_cast<double>(kSecond);
    return static_cast<SimDuration>(std::ceil(ns));
}

SimDuration checked_from_seconds(double s, std::string_view key) {
    // 2^64 ns, about 584 years: the first duration SimDuration cannot hold.
    constexpr double kLimitNs = 18446744073709551616.0;
    MCS_REQUIRE(s > 0.0 && s * static_cast<double>(kSecond) + 0.5 < kLimitNs,
                "'" + std::string(key) +
                    "' must be a positive number of seconds below 2^64 ns "
                    "(about 584 years)");
    return from_seconds(s);
}

}  // namespace mcs
