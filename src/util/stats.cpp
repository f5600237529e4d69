#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mcs {

void RunningStats::add(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
    if (n_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
    return std::sqrt(variance());
}

void RunningStats::restore(std::size_t n, double mean, double m2, double sum,
                           double min, double max) noexcept {
    n_ = n;
    mean_ = mean;
    m2_ = m2;
    sum_ = sum;
    if (n == 0) {
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    } else {
        min_ = min;
        max_ = max;
    }
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
    MCS_REQUIRE(hi > lo, "histogram range must be non-empty");
    MCS_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) noexcept {
    ++total_;
    if (x < lo_) {
        ++underflow_;
        ++counts_.front();
        return;
    }
    const auto raw = static_cast<std::size_t>((x - lo_) / width_);
    if (raw >= counts_.size()) {
        ++overflow_;
        ++counts_.back();
        return;
    }
    ++counts_[raw];
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
    MCS_REQUIRE(i < counts_.size(), "histogram bin out of range");
    return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
    MCS_REQUIRE(i < counts_.size(), "histogram bin out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
    return bin_lo(i) + width_;
}

bool Histogram::same_layout(const Histogram& other) const noexcept {
    return lo_ == other.lo_ && width_ == other.width_ &&
           counts_.size() == other.counts_.size();
}

void Histogram::restore_counts(const std::vector<std::uint64_t>& counts,
                               std::uint64_t underflow, std::uint64_t overflow,
                               std::uint64_t total) {
    MCS_REQUIRE(counts.size() == counts_.size(),
                "histogram restore: bin count mismatch");
    counts_ = counts;
    underflow_ = underflow;
    overflow_ = overflow;
    total_ = total;
}

void SampleSet::ensure_sorted() const {
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double SampleSet::quantile(double q) const {
    MCS_REQUIRE(!samples_.empty(), "quantile of empty sample set");
    MCS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    ensure_sorted();
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= samples_.size()) {
        return samples_.back();
    }
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double SampleSet::mean() const {
    MCS_REQUIRE(!samples_.empty(), "mean of empty sample set");
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

double SampleSet::min() const {
    MCS_REQUIRE(!samples_.empty(), "min of empty sample set");
    ensure_sorted();
    return samples_.front();
}

double SampleSet::max() const {
    MCS_REQUIRE(!samples_.empty(), "max of empty sample set");
    ensure_sorted();
    return samples_.back();
}

}  // namespace mcs
