#pragma once

// Order statistics for host timings. Every timing the benchmark reports is
// a statistic over many short operations, never one long sample: on a
// shared host single timings of one binary and seed vary by tens of
// percent between processes, while the median of many repeats is steady.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must rank above a reported percentile. A p90 therefore
/// needs at least 100 samples and a p50 at least 20.
inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolation quantile (numpy's default): q(p) = x[(n-1)p],
/// interpolated between neighbouring order statistics; q(0.5) is the
/// ordinary median. `samples` must not be empty; `p` lies in [0, 1].
double quantile(std::vector<double> samples, double p);

double median(const std::vector<double>& samples);

/// True when at least kMinBeyond of `count` samples lie beyond the
/// `percent`-th percentile: count * (100 - percent) >= kMinBeyond * 100.
bool percentile_supported(std::size_t count, int percent);

/// One reported percentile with the sample count it rests on.
struct Percentile {
    double value = 0.0;
    std::size_t count = 0;
};

/// The `percent`-th percentile of `samples`, or nullopt when the sample
/// is too small to support it (see percentile_supported).
std::optional<Percentile> percentile(const std::vector<double>& samples,
                                     int percent);

/// A bounded, evenly spaced subsample of a long stream: keeps every
/// stride-th value, and when the buffer fills it drops every other kept
/// value and doubles the stride. Memory stays fixed however many hits a
/// run serves, so the benchmark's own bookkeeping does not make the
/// process's peak RSS depend on host speed.
class StrideSample {
public:
    /// `capacity` must be even and at least 2.
    explicit StrideSample(std::size_t capacity);
    void add(double value);
    const std::vector<double>& values() const noexcept { return values_; }
    /// Values offered so far (kept or not).
    std::uint64_t seen() const noexcept { return seen_; }

private:
    std::size_t capacity_;
    std::uint64_t stride_ = 1;
    std::uint64_t seen_ = 0;
    std::vector<double> values_;
};

/// FNV-1a over `bytes`, as 16 lowercase hex digits: the digest each
/// workload prints so two commits' outputs can be compared at a glance.
std::string digest(std::string_view bytes);

}  // namespace perfbench
