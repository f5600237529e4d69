#include "mapping/contiguous_mapper.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

/// Owns the buffers behind a PlatformView for test scenarios.
struct ViewFixture {
    int width;
    int height;
    std::vector<std::uint8_t> alloc;
    std::vector<double> util;
    std::vector<double> crit;
    std::vector<std::uint8_t> testing;

    ViewFixture(int w, int h)
        : width(w),
          height(h),
          alloc(static_cast<std::size_t>(w * h), 1),
          util(static_cast<std::size_t>(w * h), 0.0),
          crit(static_cast<std::size_t>(w * h), 0.0),
          testing(static_cast<std::size_t>(w * h), 0) {}

    PlatformView view() const {
        PlatformView v;
        v.width = width;
        v.height = height;
        v.allocatable = alloc;
        v.utilization = util;
        v.criticality = crit;
        v.testing = testing;
        return v;
    }
};

void expect_valid_mapping(const MappingResult& r, const PlatformView& v,
                          std::size_t n) {
    ASSERT_EQ(r.cores.size(), n);
    std::set<CoreId> unique(r.cores.begin(), r.cores.end());
    EXPECT_EQ(unique.size(), n) << "duplicate cores in mapping";
    for (CoreId id : r.cores) {
        ASSERT_LT(id, v.core_count());
        EXPECT_TRUE(v.allocatable[id]);
    }
}

TEST(ContiguousMapper, MapsRequestedCount) {
    ViewFixture f(8, 8);
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    const auto r = mapper.map({1, 9}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    expect_valid_mapping(*r, f.view(), 9);
}

TEST(ContiguousMapper, RegionIsCompact) {
    ViewFixture f(8, 8);
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    const auto r = mapper.map({1, 9}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    // 9 cores on an empty mesh should form (close to) a 3x3 block:
    // average pairwise distance of a perfect 3x3 block is 2.
    EXPECT_LE(mapping_dispersion(f.view(), r->cores), 2.5);
}

TEST(ContiguousMapper, ReturnsNulloptWhenInsufficient) {
    ViewFixture f(4, 4);
    for (std::size_t i = 0; i < 10; ++i) {
        f.alloc[i] = 0;
    }
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    EXPECT_FALSE(mapper.map({1, 7}, f.view(), rng).has_value());
    EXPECT_TRUE(mapper.map({1, 6}, f.view(), rng).has_value());
}

TEST(ContiguousMapper, NeverPicksUnallocatable) {
    ViewFixture f(6, 6);
    // Checkerboard free pattern.
    for (std::size_t i = 0; i < f.alloc.size(); ++i) {
        f.alloc[i] = (i % 2 == 0) ? 1 : 0;
    }
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    const auto r = mapper.map({1, 10}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    expect_valid_mapping(*r, f.view(), 10);
}

TEST(ContiguousMapper, PrefersFreeRegion) {
    ViewFixture f(8, 4);
    // Left half occupied.
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            f.alloc[static_cast<std::size_t>(y * 8 + x)] = 0;
        }
    }
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    const auto r = mapper.map({1, 4}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    for (CoreId id : r->cores) {
        EXPECT_GE(static_cast<int>(id) % 8, 4) << "mapped into occupied half";
    }
}

TEST(ContiguousMapper, UtilizationOrientedAvoidsWornRegion) {
    ViewFixture f(8, 4);
    // Left half heavily utilized (but free).
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            f.util[static_cast<std::size_t>(y * 8 + x)] = 0.9;
        }
    }
    auto mapper = ContiguousMapper::utilization_oriented();
    Rng rng(1);
    const auto r = mapper.map({1, 4}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    int right = 0;
    for (CoreId id : r->cores) {
        right += (static_cast<int>(id) % 8 >= 4) ? 1 : 0;
    }
    EXPECT_GE(right, 3);
}

TEST(ContiguousMapper, TestAwareAvoidsCriticalCores) {
    ViewFixture f(8, 4);
    // Left half highly test-critical.
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            f.crit[static_cast<std::size_t>(y * 8 + x)] = 1.5;
        }
    }
    auto mapper = ContiguousMapper::test_aware();
    Rng rng(1);
    const auto r = mapper.map({1, 4}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    for (CoreId id : r->cores) {
        EXPECT_GE(static_cast<int>(id) % 8, 4)
            << "test-aware mapper picked a critical core unnecessarily";
    }
}

TEST(ContiguousMapper, ThermalAwareAvoidsHotRegion) {
    ViewFixture f(8, 4);
    std::vector<double> temps(32, 45.0);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            temps[static_cast<std::size_t>(y * 8 + x)] = 85.0;  // hot half
        }
    }
    auto mapper = ContiguousMapper::thermal_aware();
    Rng rng(1);
    PlatformView v = f.view();
    v.temperature_c = temps;
    const auto r = mapper.map({1, 4}, v, rng);
    ASSERT_TRUE(r.has_value());
    for (CoreId id : r->cores) {
        EXPECT_GE(static_cast<int>(id) % 8, 4)
            << "thermal-aware mapper picked a hot core unnecessarily";
    }
    // Without temperature data it behaves like the test-aware mapper.
    const auto r2 = mapper.map({1, 4}, f.view(), rng);
    EXPECT_TRUE(r2.has_value());
}

TEST(ContiguousMapper, TestAwareAvoidsTestingCores) {
    ViewFixture f(4, 4);
    // Core 5 is mid-test; 8 cores requested out of 16 -- plenty of room to
    // avoid it.
    f.testing[5] = 1;
    auto mapper = ContiguousMapper::test_aware();
    Rng rng(1);
    const auto r = mapper.map({1, 8}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    for (CoreId id : r->cores) {
        EXPECT_NE(id, 5u);
    }
}

TEST(ContiguousMapper, ClaimsTestingCoreOnlyWhenNecessary) {
    ViewFixture f(4, 4);
    f.testing[5] = 1;
    auto mapper = ContiguousMapper::test_aware();
    Rng rng(1);
    const auto r = mapper.map({1, 16}, f.view(), rng);  // needs every core
    ASSERT_TRUE(r.has_value());
    std::set<CoreId> cores(r->cores.begin(), r->cores.end());
    EXPECT_TRUE(cores.count(5));
}

TEST(ContiguousMapper, PlainIgnoresTestingCores) {
    ViewFixture f(4, 4);
    f.testing[0] = 1;
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    const auto r = mapper.map({1, 16}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    expect_valid_mapping(*r, f.view(), 16);
}

TEST(RandomMapper, ValidAndSeedDeterministic) {
    ViewFixture f(6, 6);
    RandomMapper mapper;
    Rng a(5), b(5);
    const auto ra = mapper.map({1, 8}, f.view(), a);
    const auto rb = mapper.map({1, 8}, f.view(), b);
    ASSERT_TRUE(ra.has_value());
    expect_valid_mapping(*ra, f.view(), 8);
    EXPECT_EQ(ra->cores, rb->cores);
}

TEST(RandomMapper, MoreDispersedThanContiguous) {
    ViewFixture f(8, 8);
    RandomMapper rnd;
    auto cont = ContiguousMapper::plain();
    Rng r1(9), r2(9);
    double rnd_disp = 0.0, cont_disp = 0.0;
    for (int i = 0; i < 20; ++i) {
        rnd_disp += mapping_dispersion(
            f.view(), rnd.map({1, 9}, f.view(), r1)->cores);
        cont_disp += mapping_dispersion(
            f.view(), cont.map({1, 9}, f.view(), r2)->cores);
    }
    EXPECT_GT(rnd_disp, cont_disp * 1.5);
}

TEST(FirstFitMapper, TakesRowMajorPrefix) {
    ViewFixture f(4, 4);
    f.alloc[0] = 0;
    FirstFitMapper mapper;
    Rng rng(1);
    const auto r = mapper.map({1, 3}, f.view(), rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cores, (std::vector<CoreId>{1, 2, 3}));
}

TEST(FirstFitMapper, NulloptWhenFull) {
    ViewFixture f(2, 2);
    for (auto& a : f.alloc) {
        a = 0;
    }
    FirstFitMapper mapper;
    Rng rng(1);
    EXPECT_FALSE(mapper.map({1, 1}, f.view(), rng).has_value());
}

TEST(MappingDispersion, KnownValues) {
    ViewFixture f(4, 4);
    // Cores 0 and 3 in the same row: distance 3.
    EXPECT_DOUBLE_EQ(
        mapping_dispersion(f.view(), std::vector<CoreId>{0, 3}), 3.0);
    // Single core: zero.
    EXPECT_DOUBLE_EQ(mapping_dispersion(f.view(), std::vector<CoreId>{0}),
                     0.0);
    // 2x2 block: mean of {1,1,1,1,2,2} = 8/6.
    EXPECT_NEAR(
        mapping_dispersion(f.view(), std::vector<CoreId>{0, 1, 4, 5}),
        8.0 / 6.0, 1e-12);
}

TEST(MapperValidation, RejectsBadInputs) {
    ViewFixture f(4, 4);
    auto mapper = ContiguousMapper::plain();
    Rng rng(1);
    EXPECT_THROW(mapper.map({1, 0}, f.view(), rng), RequireError);
    PlatformView bad = f.view();
    bad.width = 0;
    EXPECT_THROW(mapper.map({1, 2}, bad, rng), RequireError);
    PlatformView mismatched = f.view();
    mismatched.width = 5;  // alloc mask no longer matches
    EXPECT_THROW(mapper.map({1, 2}, mismatched, rng), RequireError);

    // Values: utilization and criticality finite and non-negative,
    // temperatures finite. Every preset checks them, whatever its weights.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad_value : {nan, -0.25, inf}) {
        ViewFixture u(4, 4);
        u.util[5] = bad_value;
        EXPECT_THROW(mapper.map({1, 2}, u.view(), rng), RequireError);
        ViewFixture c(4, 4);
        c.crit[5] = bad_value;
        EXPECT_THROW(mapper.map({1, 2}, c.view(), rng), RequireError);
    }
    for (const double bad_temp : {inf, -inf, nan}) {
        std::vector<double> temps(16, 50.0);
        temps[9] = bad_temp;
        PlatformView hot = f.view();
        hot.temperature_c = temps;
        EXPECT_THROW(mapper.map({1, 2}, hot, rng), RequireError);
    }

    // Weights: non-negative, with a positive temperature scale.
    EXPECT_THROW(ContiguousMapper("bad", MappingWeights{-1.0, 0.0, 0.0}),
                 RequireError);
    EXPECT_THROW(ContiguousMapper("bad", MappingWeights{1.0, -0.5, 0.0}),
                 RequireError);
    EXPECT_THROW(ContiguousMapper("bad", MappingWeights{1.0, 0.0, -0.1}),
                 RequireError);
    MappingWeights cold{1.0, 0.0, 0.0};
    cold.w_temperature = -0.6;
    EXPECT_THROW(ContiguousMapper("bad", cold), RequireError);
    for (const double scale : {0.0, -40.0, nan}) {
        MappingWeights w;
        w.temp_scale_c = scale;
        EXPECT_THROW(ContiguousMapper("bad", w), RequireError);
    }
}

// Differential oracle: the row-major full scan and the O(k*N) greedy growth
// that the bounded first-node search and the sorted growth replaced, kept
// verbatim. The mapper must return exactly what they return.
class ReferenceContiguousMapper {
public:
    explicit ReferenceContiguousMapper(MappingWeights weights)
        : weights_(weights) {}

    std::optional<MappingResult> map(const MapRequest& request,
                                     const PlatformView& view) const {
        std::size_t free_cores = 0;
        for (std::uint8_t a : view.allocatable) {
            free_cores += a != 0 ? 1 : 0;
        }
        if (free_cores < request.core_count) {
            return std::nullopt;
        }
        const int side = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(request.core_count))));
        const int radius = (side + 1) / 2;
        CoreId best = kInvalidCore;
        double best_score = -1e300;
        for (std::size_t id = 0; id < view.core_count(); ++id) {
            if (!view.allocatable[id]) {
                continue;
            }
            const double score =
                first_node_score(view, static_cast<CoreId>(id), radius);
            if (score > best_score) {
                best_score = score;
                best = static_cast<CoreId>(id);
            }
        }
        MCS_REQUIRE(best != kInvalidCore, "no allocatable first node");

        const bool test_aware = weights_.w_criticality > 0.0;
        const int kTestingPenaltyHops = view.width + view.height;
        MappingResult result;
        result.first_node = best;
        std::vector<bool> taken(view.core_count(), false);
        result.cores.push_back(best);
        taken[best] = true;
        while (result.cores.size() < request.core_count) {
            CoreId pick = kInvalidCore;
            int pick_dist = 0;
            double pick_crit = 0.0;
            for (std::size_t id = 0; id < view.core_count(); ++id) {
                if (!view.allocatable[id] || taken[id]) {
                    continue;
                }
                int dist = manhattan(view, best, static_cast<CoreId>(id));
                if (test_aware && !view.testing.empty() && view.testing[id]) {
                    dist += kTestingPenaltyHops;
                }
                const double crit =
                    view.criticality.empty() ? 0.0 : view.criticality[id];
                const bool better =
                    pick == kInvalidCore || dist < pick_dist ||
                    (dist == pick_dist && test_aware && crit < pick_crit);
                if (better) {
                    pick = static_cast<CoreId>(id);
                    pick_dist = dist;
                    pick_crit = crit;
                }
            }
            MCS_REQUIRE(pick != kInvalidCore,
                        "allocatable count changed during mapping");
            result.cores.push_back(pick);
            taken[pick] = true;
        }
        return result;
    }

private:
    static int manhattan(const PlatformView& view, CoreId a, CoreId b) {
        return std::abs(view.x_of(a) - view.x_of(b)) +
               std::abs(view.y_of(a) - view.y_of(b));
    }

    double first_node_score(const PlatformView& view, CoreId candidate,
                            int radius) const {
        const int cx = view.x_of(candidate);
        const int cy = view.y_of(candidate);
        int free_count = 0;
        int cells = 0;
        double util_sum = 0.0;
        double crit_sum = 0.0;
        double temp_sum = 0.0;
        for (int y = cy - radius; y <= cy + radius; ++y) {
            for (int x = cx - radius; x <= cx + radius; ++x) {
                if (x < 0 || x >= view.width || y < 0 || y >= view.height) {
                    continue;
                }
                const auto id =
                    static_cast<std::size_t>(y * view.width + x);
                ++cells;
                if (view.allocatable[id]) {
                    ++free_count;
                }
                if (!view.utilization.empty()) {
                    util_sum += view.utilization[id];
                }
                if (!view.criticality.empty()) {
                    crit_sum += view.criticality[id];
                }
                if (!view.temperature_c.empty()) {
                    temp_sum += std::max(
                        0.0, (view.temperature_c[id] - weights_.temp_ref_c) /
                                 weights_.temp_scale_c);
                }
            }
        }
        if (cells == 0) {
            return 0.0;
        }
        const double contiguity =
            static_cast<double>(free_count) / static_cast<double>(cells);
        const double avg_util = util_sum / static_cast<double>(cells);
        const double avg_crit = crit_sum / static_cast<double>(cells);
        const double avg_temp = temp_sum / static_cast<double>(cells);
        return weights_.w_contiguity * contiguity -
               weights_.w_utilization * avg_util -
               weights_.w_criticality * avg_crit -
               weights_.w_temperature * avg_temp;
    }

    MappingWeights weights_;
};

/// How the oracle's views fill utilization, criticality and temperature.
enum class ValueMode {
    Uniform,    ///< independent uniform draws
    Quarters,   ///< multiples of 1/4 (and temperature terms of 1/4): ties
    UlpNudged,  ///< one constant each, cells moved by 0 or +-1 ulp
    Zero,       ///< all zero
};

const char* to_string(ValueMode mode) {
    switch (mode) {
        case ValueMode::Uniform: return "uniform";
        case ValueMode::Quarters: return "quarters";
        case ValueMode::UlpNudged: return "ulp-nudged";
        case ValueMode::Zero: return "zero";
    }
    return "?";
}

double nudged(double value, Rng& rng) {
    switch (rng.index(3)) {
        case 0: return value;
        case 1: return std::nextafter(value, 1e300);
        default: return std::nextafter(value, -1e300);
    }
}

/// A random mesh for the oracle: allocatable and testing masks plus values.
struct RandomView {
    int width;
    int height;
    std::vector<std::uint8_t> alloc;
    std::vector<std::uint8_t> testing;
    std::vector<double> util;
    std::vector<double> crit;
    std::vector<double> temps;

    RandomView(int w, int h, ValueMode mode, Rng& rng)
        : width(w), height(h) {
        const auto n = static_cast<std::size_t>(w * h);
        // A full mesh makes the contiguity term tie across the interior.
        const double free_share =
            rng.bernoulli(0.25) ? 1.0 : rng.uniform(0.2, 1.0);
        for (std::size_t i = 0; i < n; ++i) {
            alloc.push_back(rng.bernoulli(free_share) ? 1 : 0);
            testing.push_back(rng.bernoulli(0.2) ? 1 : 0);
            switch (mode) {
                case ValueMode::Uniform:
                    util.push_back(rng.uniform());
                    crit.push_back(rng.uniform(0.0, 2.0));
                    temps.push_back(rng.uniform(30.0, 110.0));
                    break;
                case ValueMode::Quarters:
                    util.push_back(static_cast<double>(rng.index(5)) / 4.0);
                    crit.push_back(static_cast<double>(rng.index(9)) / 4.0);
                    // (T - 45) / 40 in quarters.
                    temps.push_back(45.0 +
                                    10.0 * static_cast<double>(rng.index(7)));
                    break;
                case ValueMode::UlpNudged:
                    util.push_back(nudged(0.3, rng));
                    crit.push_back(nudged(0.7, rng));
                    temps.push_back(nudged(61.0, rng));
                    break;
                case ValueMode::Zero:
                    util.push_back(0.0);
                    crit.push_back(0.0);
                    temps.push_back(0.0);
                    break;
            }
        }
    }

    PlatformView view(bool with_temps) const {
        PlatformView v;
        v.width = width;
        v.height = height;
        v.allocatable = alloc;
        v.utilization = util;
        v.criticality = crit;
        v.testing = testing;
        if (with_temps) {
            v.temperature_c = temps;
        }
        return v;
    }
};

std::string describe(const std::optional<MappingResult>& r) {
    if (!r) {
        return "nullopt";
    }
    std::ostringstream os;
    os << "first " << r->first_node << " cores";
    for (CoreId id : r->cores) {
        os << ' ' << id;
    }
    return os.str();
}

TEST(ContiguousMapperDifferential, MatchesFullScanReference) {
    const std::pair<int, int> grids[] = {{1, 1},  {1, 9},   {9, 1},
                                         {3, 3},  {8, 8},   {13, 7},
                                         {16, 16}, {32, 32}};
    const ValueMode modes[] = {ValueMode::Uniform, ValueMode::Quarters,
                               ValueMode::UlpNudged, ValueMode::Zero};
    std::vector<ContiguousMapper> presets = {
        ContiguousMapper::plain(), ContiguousMapper::utilization_oriented(),
        ContiguousMapper::test_aware(), ContiguousMapper::thermal_aware()};
    constexpr int kViewsPerMode = 30;
    Rng rng(2015);
    std::size_t cases = 0;
    std::size_t mismatches = 0;
    for (const auto& [width, height] : grids) {
        const auto n = static_cast<std::size_t>(width * height);
        for (const ValueMode mode : modes) {
            for (int rep = 0; rep < kViewsPerMode; ++rep) {
                const RandomView random_view(width, height, mode, rng);
                for (const bool with_temps : {false, true}) {
                    const PlatformView view = random_view.view(with_temps);
                    for (ContiguousMapper& mapper : presets) {
                        const ReferenceContiguousMapper reference(
                            mapper.weights());
                        for (std::size_t k = 1; k <= std::min<std::size_t>(n, 20);
                             ++k) {
                            const auto got = mapper.map({1, k}, view, rng);
                            const auto want = reference.map({1, k}, view);
                            ++cases;
                            const bool same =
                                got.has_value() == want.has_value() &&
                                (!got || (got->first_node == want->first_node &&
                                          got->cores == want->cores));
                            if (!same && ++mismatches <= 3) {
                                ADD_FAILURE()
                                    << width << "x" << height << " "
                                    << to_string(mode) << " view " << rep
                                    << (with_temps ? " with" : " without")
                                    << " temperatures, " << mapper.name()
                                    << ", " << k << " cores: got "
                                    << describe(got) << ", want "
                                    << describe(want);
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
    EXPECT_GE(cases, 100000u);
}

// Property sweep: every mapper returns valid mappings over random masks.
class MapperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperProperty, ValidOverRandomOccupancy) {
    Rng rng(GetParam());
    ViewFixture f(8, 8);
    for (auto& a : f.alloc) {
        a = rng.bernoulli(0.6) ? 1 : 0;
    }
    for (auto& u : f.util) {
        u = rng.uniform();
    }
    for (auto& c : f.crit) {
        c = rng.uniform(0.0, 2.0);
    }
    std::size_t free_count = 0;
    for (auto a : f.alloc) {
        free_count += a;
    }
    auto plain = ContiguousMapper::plain();
    auto taum = ContiguousMapper::test_aware();
    RandomMapper random;
    FirstFitMapper first_fit;
    for (Mapper* m : std::initializer_list<Mapper*>{&plain, &taum, &random,
                                                    &first_fit}) {
        for (std::size_t n : {1u, 4u, 9u, 16u}) {
            const auto r = m->map({1, n}, f.view(), rng);
            if (n <= free_count) {
                ASSERT_TRUE(r.has_value()) << m->name();
                expect_valid_mapping(*r, f.view(), n);
            } else {
                EXPECT_FALSE(r.has_value()) << m->name();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperProperty,
                         ::testing::Values(1u, 7u, 13u, 99u, 1234u));

}  // namespace
}  // namespace mcs
