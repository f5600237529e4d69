#include "mapping/reliability_mapper.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

/// Owns the buffers behind a PlatformView (with the thermal / testing
/// layers the reliability score reads).
struct ViewFixture {
    int width;
    int height;
    std::vector<std::uint8_t> alloc;
    std::vector<double> util;
    std::vector<double> crit;
    std::vector<std::uint8_t> testing;
    std::vector<double> temp;

    ViewFixture(int w, int h)
        : width(w),
          height(h),
          alloc(static_cast<std::size_t>(w * h), 1),
          util(static_cast<std::size_t>(w * h), 0.0),
          crit(static_cast<std::size_t>(w * h), 0.0),
          testing(static_cast<std::size_t>(w * h), 0),
          temp(static_cast<std::size_t>(w * h), 45.0) {}

    PlatformView view(bool with_temp = true, bool with_testing = true) const {
        PlatformView v;
        v.width = width;
        v.height = height;
        v.allocatable = alloc;
        v.utilization = util;
        v.criticality = crit;
        if (with_testing) {
            v.testing = testing;
        }
        if (with_temp) {
            v.temperature_c = temp;
        }
        return v;
    }
};

/// Brute-force reference: independently scores every allocatable core with
/// the documented formula and sorts (weight, id) ascending.
std::vector<CoreId> reference_order(const ViewFixture& f,
                                    const ReliabilityWeights& w,
                                    bool with_temp = true,
                                    bool with_testing = true) {
    std::vector<std::pair<double, CoreId>> scored;
    for (CoreId id = 0; id < f.alloc.size(); ++id) {
        if (!f.alloc[id]) {
            continue;
        }
        double weight = w.w_utilization * f.util[id] +
                        w.w_criticality * f.crit[id];
        if (with_temp) {
            const double t = (f.temp[id] - w.temp_ref_c) / w.temp_scale_c;
            weight += w.w_temperature * std::clamp(t, 0.0, 1.0);
        }
        if (with_testing && f.testing[id]) {
            weight += w.w_testing;
        }
        scored.push_back({weight, id});
    }
    std::sort(scored.begin(), scored.end());
    std::vector<CoreId> order;
    for (const auto& [weight, id] : scored) {
        order.push_back(id);
    }
    return order;
}

TEST(ReliabilityMapper, PrefersLowestWearRiskCores) {
    ViewFixture f(4, 4);
    f.util[0] = 0.9;   // heavily worn
    f.crit[5] = 1.0;   // test-critical
    f.temp[10] = 95.0; // hot spot
    f.testing[3] = 1;  // would abort a test
    ReliabilityWeightedMapper mapper;
    Rng rng(1);
    const auto r = mapper.map({1, 4}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    const std::vector<CoreId> ref = reference_order(f, mapper.weights());
    EXPECT_EQ(r->cores,
              std::vector<CoreId>(ref.begin(), ref.begin() + 4));
    EXPECT_EQ(r->first_node, r->cores.front());
    // None of the four perturbed cores should be picked on an empty mesh.
    for (const CoreId id : {0u, 5u, 10u, 3u}) {
        EXPECT_EQ(std::count(r->cores.begin(), r->cores.end(), id), 0);
    }
}

TEST(ReliabilityMapper, MatchesBruteForceOnRandomizedChips) {
    Rng rng(20260808);
    ReliabilityWeightedMapper mapper;
    for (int trial = 0; trial < 200; ++trial) {
        const int side = 3 + static_cast<int>(rng.index(6));  // 3x3 .. 8x8
        ViewFixture f(side, side);
        for (std::size_t i = 0; i < f.alloc.size(); ++i) {
            f.alloc[i] = rng.bernoulli(0.8) ? 1 : 0;
            f.util[i] = rng.uniform();
            f.crit[i] = rng.uniform();
            f.testing[i] = rng.bernoulli(0.2) ? 1 : 0;
            f.temp[i] = rng.uniform(30.0, 100.0);
        }
        const std::vector<CoreId> ref = reference_order(f, mapper.weights());
        const std::size_t want = 1 + rng.index(f.alloc.size());
        Rng map_rng(trial);
        const auto r = mapper.map({1, want}, f.view(), map_rng);
        if (want > ref.size()) {
            EXPECT_FALSE(r.has_value()) << "trial " << trial;
            continue;
        }
        ASSERT_TRUE(r.has_value()) << "trial " << trial;
        EXPECT_EQ(r->cores,
                  std::vector<CoreId>(ref.begin(), ref.begin() + want))
            << "trial " << trial
            << ": preference order diverged from brute force";
        EXPECT_EQ(r->first_node, r->cores.front());
    }
}

TEST(ReliabilityMapper, CoreWeightMatchesDocumentedFormula) {
    ViewFixture f(2, 2);
    f.util[1] = 0.5;
    f.crit[1] = 0.8;
    f.temp[1] = 65.0;
    f.testing[1] = 1;
    ReliabilityWeightedMapper mapper;
    const ReliabilityWeights& w = mapper.weights();
    // Hand-computed: 0.5*0.5 + 0.3*0.8 + 0.2*((65-45)/40) + 0.25.
    EXPECT_NEAR(mapper.core_weight(f.view(), 1),
                w.w_utilization * 0.5 + w.w_criticality * 0.8 +
                    w.w_temperature * 0.5 + w.w_testing,
                1e-12);
    // Temperature clamps: below the reference adds nothing, far above
    // saturates at w_temperature.
    f.temp[0] = 20.0;
    EXPECT_NEAR(mapper.core_weight(f.view(), 0), 0.0, 1e-12);
    f.temp[2] = 200.0;
    EXPECT_NEAR(mapper.core_weight(f.view(), 2), w.w_temperature, 1e-12);
}

TEST(ReliabilityMapper, HandlesMissingOptionalLayers) {
    ViewFixture f(4, 4);
    f.util[7] = 1.0;
    f.temp[2] = 150.0;   // would dominate if the layer were attached
    f.testing[3] = 1;
    ReliabilityWeightedMapper mapper;
    Rng rng(1);
    const auto r =
        mapper.map({1, 15}, f.view(/*with_temp=*/false,
                                   /*with_testing=*/false),
                   rng);
    ASSERT_TRUE(r.has_value());
    const std::vector<CoreId> ref =
        reference_order(f, mapper.weights(), false, false);
    EXPECT_EQ(r->cores,
              std::vector<CoreId>(ref.begin(), ref.begin() + 15));
    // Without the layers, only utilization differentiates: core 7 is the
    // single worst pick and must be the one left out.
    EXPECT_EQ(std::count(r->cores.begin(), r->cores.end(), CoreId{7}), 0);
}

TEST(ReliabilityMapper, BreaksTiesByCoreId) {
    ViewFixture f(4, 4);  // perfectly uniform view
    ReliabilityWeightedMapper mapper;
    Rng rng(123);
    const auto r = mapper.map({1, 5}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cores, (std::vector<CoreId>{0, 1, 2, 3, 4}));
}

TEST(ReliabilityMapper, ReturnsNulloptWhenInsufficient) {
    ViewFixture f(4, 4);
    for (std::size_t i = 0; i < 12; ++i) {
        f.alloc[i] = 0;
    }
    ReliabilityWeightedMapper mapper;
    Rng rng(1);
    EXPECT_FALSE(mapper.map({1, 5}, f.view(), rng).has_value());
    EXPECT_TRUE(mapper.map({1, 4}, f.view(), rng).has_value());
    EXPECT_THROW(mapper.map({1, 0}, f.view(), rng), RequireError);
}

TEST(ReliabilityMapper, RejectsBadInputs) {
    ReliabilityWeightedMapper mapper;
    Rng rng(1);
    const MapRequest request{1, 2};
    const auto rejects = [&](const PlatformView& v) {
        EXPECT_THROW(mapper.map(request, v, rng), RequireError);
    };
    // Every core's weight reads utilization and criticality: neither may be
    // left out, and no span may disagree with the dimensions.
    {
        ViewFixture f(4, 4);
        PlatformView v = f.view();
        v.utilization = {};
        rejects(v);
        v = f.view();
        v.criticality = {};
        rejects(v);
        v = f.view();
        v.allocatable = {};
        rejects(v);
        v = f.view();
        v.utilization = std::span<const double>(f.util).first(15);
        rejects(v);
        v = f.view();
        v.temperature_c = std::span<const double>(f.temp).first(15);
        rejects(v);
        v = f.view();
        v.testing = std::span<const std::uint8_t>(f.testing).first(15);
        rejects(v);
        v = f.view();
        v.width = 0;
        rejects(v);
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, -0.5, inf}) {
        ViewFixture f(4, 4);
        f.util[6] = bad;
        rejects(f.view());
    }
    for (const double bad : {nan, -0.5, inf}) {
        ViewFixture f(4, 4);
        f.crit[9] = bad;
        rejects(f.view());
    }
    for (const double bad : {nan, inf, -inf}) {
        ViewFixture f(4, 4);
        f.temp[3] = bad;
        rejects(f.view());
        // Without the layer attached the temperature is never read.
        EXPECT_TRUE(mapper.map(request, f.view(/*with_temp=*/false), rng)
                        .has_value());
    }
    // A value on a core that cannot be allocated is never read.
    ViewFixture f(4, 4);
    f.util[0] = nan;
    f.alloc[0] = 0;
    EXPECT_TRUE(mapper.map(request, f.view(), rng).has_value());
}

}  // namespace
}  // namespace mcs
