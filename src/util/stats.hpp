#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/require.hpp"

namespace mcs {

/// Online mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x) noexcept;

    std::size_t count() const noexcept { return n_; }
    bool empty() const noexcept { return n_ == 0; }
    double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    double variance() const noexcept;
    double stddev() const noexcept;
    double min() const noexcept { return n_ ? min_ : 0.0; }
    double max() const noexcept { return n_ ? max_ : 0.0; }
    double sum() const noexcept { return sum_; }

    /// Raw second central moment (Welford M2), for exact checkpointing.
    double m2() const noexcept { return m2_; }

    /// Restores the exact accumulator state captured via the raw accessors.
    /// min/max are ignored when n == 0 (the empty sentinel is reinstated).
    void restore(std::size_t n, double mean, double m2, double sum, double min,
                 double max) noexcept;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bin and counted separately as underflow/overflow.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    std::size_t bins() const noexcept { return counts_.size(); }
    std::uint64_t bin_count(std::size_t i) const;
    double bin_lo(std::size_t i) const;
    double bin_hi(std::size_t i) const;
    std::uint64_t underflow() const noexcept { return underflow_; }
    std::uint64_t overflow() const noexcept { return overflow_; }
    std::uint64_t total() const noexcept { return total_; }

    /// Whether `other` has the identical bucket layout (lo, width, bins).
    bool same_layout(const Histogram& other) const noexcept;

    /// Overwrites the bin contents with a previously captured state. The
    /// bin count must match the constructed layout.
    void restore_counts(const std::vector<std::uint64_t>& counts,
                        std::uint64_t underflow, std::uint64_t overflow,
                        std::uint64_t total);

private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/// Stores all samples; supports exact quantiles. Intended for experiment
/// post-processing (detection-latency CDFs etc.), not hot loops.
class SampleSet {
public:
    void add(double x) { samples_.push_back(x); }
    std::size_t count() const noexcept { return samples_.size(); }
    bool empty() const noexcept { return samples_.empty(); }

    /// Exact empirical quantile, q in [0,1]. Requires at least one sample.
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double mean() const;
    double min() const;
    double max() const;

    const std::vector<double>& samples() const noexcept { return samples_; }

private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    void ensure_sorted() const;
};

}  // namespace mcs
