#include "util/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace mcs {
namespace {

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.mean(), 3.5);
}

TEST(RunningStats, NegativeValues) {
    RunningStats s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Histogram, BasicBinning) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(3.0);   // bin 1
    h.add(9.99);  // bin 4
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(1), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnderOverflowClampedToEdgeBins) {
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(15.0);
    h.add(10.0);  // hi edge is exclusive -> overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(4), 2u);
}

TEST(Histogram, BinEdges) {
    Histogram h(10.0, 20.0, 4);
    EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
    EXPECT_DOUBLE_EQ(h.bin_hi(0), 12.5);
    EXPECT_DOUBLE_EQ(h.bin_lo(3), 17.5);
    EXPECT_DOUBLE_EQ(h.bin_hi(3), 20.0);
    EXPECT_THROW(h.bin_count(4), RequireError);
}

TEST(Histogram, RejectsBadConstruction) {
    EXPECT_THROW(Histogram(1.0, 1.0, 4), RequireError);
    EXPECT_THROW(Histogram(2.0, 1.0, 4), RequireError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), RequireError);
}

TEST(SampleSet, Quantiles) {
    SampleSet s;
    for (int i = 1; i <= 100; ++i) {
        s.add(static_cast<double>(i));
    }
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.quantile(0.95), 95.05, 0.01);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
    SampleSet s;
    s.add(5.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    s.add(100.0);  // re-sorts lazily
    EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(SampleSet, EmptyThrows) {
    SampleSet s;
    EXPECT_THROW(s.quantile(0.5), RequireError);
    EXPECT_THROW(s.mean(), RequireError);
    EXPECT_THROW(s.min(), RequireError);
}

TEST(SampleSet, QuantileRangeChecked) {
    SampleSet s;
    s.add(1.0);
    EXPECT_THROW(s.quantile(-0.1), RequireError);
    EXPECT_THROW(s.quantile(1.1), RequireError);
}

}  // namespace
}  // namespace mcs
