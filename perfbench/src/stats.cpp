#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "util/require.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double p) {
    MCS_REQUIRE(!samples.empty(), "quantile of an empty sample");
    MCS_REQUIRE(p >= 0.0 && p <= 1.0, "quantile rank outside [0, 1]");
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
    return quantile(samples, 0.5);
}

bool percentile_supported(std::size_t count, int percent) {
    MCS_REQUIRE(percent > 0 && percent < 100, "percentile outside (0, 100)");
    return count * static_cast<std::size_t>(100 - percent) >=
           kMinBeyond * 100;
}

std::optional<Percentile> percentile(const std::vector<double>& samples,
                                     int percent) {
    if (!percentile_supported(samples.size(), percent)) {
        return std::nullopt;
    }
    return Percentile{quantile(samples, percent / 100.0), samples.size()};
}

StrideSample::StrideSample(std::size_t capacity) : capacity_(capacity) {
    MCS_REQUIRE(capacity >= 2 && capacity % 2 == 0,
                "stride sample capacity must be even and at least 2");
    values_.reserve(capacity);
}

void StrideSample::add(double value) {
    if (seen_++ % stride_ != 0) {
        return;
    }
    values_.push_back(value);
    if (values_.size() == capacity_) {
        // Kept values sit at stream indices 0, s, 2s, ...; keeping the even
        // positions leaves 0, 2s, 4s, ... and the next index due,
        // capacity * s, is a multiple of the doubled stride.
        for (std::size_t i = 0; 2 * i < values_.size(); ++i) {
            values_[i] = values_[2 * i];
        }
        values_.resize(capacity_ / 2);
        stride_ *= 2;
    }
}

std::string digest(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

}  // namespace perfbench
