#include "mapping/contiguous_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/require.hpp"

namespace mcs {
namespace {

int manhattan(const PlatformView& view, CoreId a, CoreId b) {
    return std::abs(view.x_of(a) - view.x_of(b)) +
           std::abs(view.y_of(a) - view.y_of(b));
}

}  // namespace

void validate(const MapRequest& request, const PlatformView& view) {
    MCS_REQUIRE(view.width > 0 && view.height > 0,
                "platform view has empty dimensions");
    MCS_REQUIRE(view.allocatable.size() == view.core_count(),
                "allocatable mask size mismatch");
    MCS_REQUIRE(view.utilization.empty() ||
                    view.utilization.size() == view.core_count(),
                "utilization size mismatch");
    MCS_REQUIRE(view.criticality.empty() ||
                    view.criticality.size() == view.core_count(),
                "criticality size mismatch");
    MCS_REQUIRE(view.temperature_c.empty() ||
                    view.temperature_c.size() == view.core_count(),
                "temperature size mismatch");
    MCS_REQUIRE(view.testing.empty() ||
                    view.testing.size() == view.core_count(),
                "testing mask size mismatch");
    MCS_REQUIRE(request.core_count > 0, "mapping request for zero cores");
}

double mapping_dispersion(const PlatformView& view,
                          std::span<const CoreId> cores) {
    if (cores.size() < 2) {
        return 0.0;
    }
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        for (std::size_t j = i + 1; j < cores.size(); ++j) {
            sum += manhattan(view, cores[i], cores[j]);
            ++pairs;
        }
    }
    return sum / static_cast<double>(pairs);
}

ContiguousMapper::ContiguousMapper(std::string name, MappingWeights weights)
    : name_(std::move(name)), weights_(weights) {
    MCS_REQUIRE(weights_.w_contiguity >= 0.0 &&
                    weights_.w_utilization >= 0.0 &&
                    weights_.w_criticality >= 0.0 &&
                    weights_.w_temperature >= 0.0,
                "mapping weights must be non-negative");
    MCS_REQUIRE(weights_.temp_scale_c > 0.0,
                "temperature scale must be positive");
}

double ContiguousMapper::temperature_term(double temp_c) const {
    return std::max(0.0, (temp_c - weights_.temp_ref_c) /
                             weights_.temp_scale_c);
}

double ContiguousMapper::first_node_score(const PlatformView& view,
                                          CoreId candidate,
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
                temp_sum += temperature_term(view.temperature_c[id]);
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

std::size_t ContiguousMapper::build_tables(const PlatformView& view) {
    // Entry (y, x) of a (height+1) x (width+1) table sums the cells above
    // row y and left of column x: a running row sum added to the entry
    // above.
    const auto width = static_cast<std::size_t>(view.width);
    const auto height = static_cast<std::size_t>(view.height);
    const std::size_t stride = width + 1;
    free_table_.assign(stride * (height + 1), 0);
    penalty_table_.assign(stride * (height + 1), 0.0);
    for (std::size_t y = 0, id = 0; y < height; ++y) {
        int free_run = 0;
        double penalty_run = 0.0;
        for (std::size_t x = 0; x < width; ++x, ++id) {
            double penalty = 0.0;
            if (!view.utilization.empty()) {
                const double u = view.utilization[id];
                MCS_REQUIRE(std::isfinite(u) && u >= 0.0,
                            "utilization must be finite and non-negative");
                penalty += weights_.w_utilization * u;
            }
            if (!view.criticality.empty()) {
                const double c = view.criticality[id];
                MCS_REQUIRE(std::isfinite(c) && c >= 0.0,
                            "criticality must be finite and non-negative");
                penalty += weights_.w_criticality * c;
            }
            if (!view.temperature_c.empty()) {
                const double t = view.temperature_c[id];
                MCS_REQUIRE(std::isfinite(t), "temperature must be finite");
                penalty += weights_.w_temperature * temperature_term(t);
            }
            free_run += view.allocatable[id] != 0 ? 1 : 0;
            penalty_run += penalty;
            const std::size_t at = (y + 1) * stride + x + 1;
            free_table_[at] = free_table_[at - stride] + free_run;
            penalty_table_[at] = penalty_table_[at - stride] + penalty_run;
        }
    }
    return static_cast<std::size_t>(free_table_.back());
}

// First-node selection is an exact branch-and-bound over the full scan's
// argmax. The score is s = A - B - C - D, evaluated left to right, where
// A = w_c * free/cells and B, C, D are the weighted window means of
// utilization, criticality and the temperature term. Each candidate gets
//
//     bound = A - max(0, P/cells - m) + m,
//
// with A computed by the expression `first_node_score` uses (so the same
// bits), P the window sum of the penalty table and m the margin below.
// bound >= s holds for every candidate whose s is a number, as follows.
// Write u = 2^-53, g_k = k*u/(1 - k*u), N = W*H, n = cells <= N, q = the
// window's exact mean of w_u*u + w_cr*c + w_t*t (t, the temperature term,
// is the same bits in both paths: one expression on one input), Z = the
// exact sum of the table's cell penalties and S = its computed total.
//  * The score. B, C and D are >= 0, and subtracting a value >= 0 never
//    rounds up, so s <= A <= w_c. Each of B, C, D sums n values >= 0 and
//    then divides and multiplies, g_{N+1} in all, so B + C + D >=
//    (1 - g_{N+1})*q; the three subtractions add at most
//    3u(1+u)^2*(A + B + C + D). So s <= A - q + (g_{N+1} + 3.1u)*q +
//    3.1u*w_c.
//  * The table. A cell penalty rounds three times: p <= (1 + g_3) times
//    its exact value. A table entry rounds each cell it holds at most
//    W + H times, so it is within g_{W+H}*Z of exact; P is two column
//    strips, each a difference in [0, S], and their difference, so
//    P <= n*(1 + g_3)*q + (4*g_{W+H} + 3.1u)*Z.
//  * The bound. If P/cells - m rounds to <= 0, bound = fl(A + m) >= A >=
//    s. Otherwise three roundings give bound >= A - (1 + 3.1u)*fl(P/n) +
//    (2 - u)*m - 2.1u*w_c.
// With q <= 1.01*Z <= 1.02*S and every g_k <= 1.01*k*u (k*u < 2^-20 on
// any chip) the gap bound - s is at least (2 - u)*m - (N + 4(W+H) + 16) *
// 1.1u*S - 5.2u*w_c, and the m below is (N + 4(W+H) + 16) * 2u * (w_c +
// S), so the gap is >= 0. Overflow needs values near 1e308; then S is
// not finite, m is +inf or NaN and so is every bound, and no candidate is
// skipped (a NaN bound never compares below the threshold).
//
// The search: seed the threshold with the exact score of the candidate
// with the highest bound, then score, in id order, every candidate whose
// bound is not below max(seed score, best score so far), keeping the
// first strict maximum as the full scan does. A skipped candidate scores
// below a score some candidate reaches, so it is not the argmax, and the
// lowest-id candidate with the maximal score is never skipped.
CoreId ContiguousMapper::select_first_node(const PlatformView& view,
                                           int radius) {
    const int width = view.width;
    const int height = view.height;
    const auto stride = static_cast<std::size_t>(width) + 1;
    const double margin =
        static_cast<double>(view.core_count() +
                            4 * static_cast<std::size_t>(width + height) +
                            16) *
        0x1p-52 * (weights_.w_contiguity + penalty_table_.back());
    bounds_.clear();
    CoreId seed = kInvalidCore;
    double seed_bound = 0.0;
    for (int cy = 0; cy < height; ++cy) {
        // Window rows [y0, y1) and columns [x0, x1), clipped to the mesh.
        const auto y0 = static_cast<std::size_t>(std::max(0, cy - radius));
        const auto y1 =
            static_cast<std::size_t>(std::min(height, cy + radius + 1));
        for (int cx = 0; cx < width; ++cx) {
            const auto id = static_cast<CoreId>(cy * width + cx);
            if (!view.allocatable[id]) {
                continue;
            }
            const auto x0 =
                static_cast<std::size_t>(std::max(0, cx - radius));
            const auto x1 =
                static_cast<std::size_t>(std::min(width, cx + radius + 1));
            const std::size_t a = y0 * stride + x0;  // top left
            const std::size_t b = y0 * stride + x1;  // top right
            const std::size_t c = y1 * stride + x0;  // bottom left
            const std::size_t d = y1 * stride + x1;  // bottom right
            const int cells = static_cast<int>((y1 - y0) * (x1 - x0));
            const int free_count = free_table_[d] - free_table_[b] -
                                   free_table_[c] + free_table_[a];
            const double contiguity = static_cast<double>(free_count) /
                                      static_cast<double>(cells);
            const double base = weights_.w_contiguity * contiguity;
            const double penalty = (penalty_table_[d] - penalty_table_[b]) -
                                   (penalty_table_[c] - penalty_table_[a]);
            const double excess =
                penalty / static_cast<double>(cells) - margin;
            const double bound =
                excess > 0.0 ? (base - excess) + margin : base + margin;
            bounds_.emplace_back(id, bound);
            if (seed == kInvalidCore || bound > seed_bound) {
                seed = id;
                seed_bound = bound;
            }
        }
    }
    const double seed_score = first_node_score(view, seed, radius);
    CoreId best = kInvalidCore;
    double best_score = -1e300;
    // Candidates must reach the seed's exact score (a NaN one sets no floor)
    // and the best score so far.
    double threshold = seed_score > best_score ? seed_score : best_score;
    for (const auto& [id, bound] : bounds_) {
        if (bound < threshold) {
            continue;
        }
        const double score =
            id == seed ? seed_score : first_node_score(view, id, radius);
        if (score > best_score) {
            best_score = score;
            best = id;
            threshold = std::max(threshold, best_score);
        }
    }
    MCS_REQUIRE(best != kInvalidCore, "no allocatable first node");
    return best;
}

// Region growth. Each greedy pick is the remaining allocatable core
// nearest to the fixed first node (ties: lower criticality when
// test-aware, then lower id). No core's key depends on an earlier pick, so
// the picks are the keys' sorted prefix. Criticality is finite (checked
// in build_tables), so the key is a strict total order.
void ContiguousMapper::grow_region(const PlatformView& view,
                                   std::size_t count,
                                   MappingResult& result) {
    const CoreId first = result.first_node;
    const bool test_aware = weights_.w_criticality > 0.0;
    // Penalty in hops for claiming a core that is mid-test: effectively
    // "anywhere else first" on a mesh whose diameter is width+height.
    const int testing_penalty_hops = view.width + view.height;
    const int fx = view.x_of(first);
    const int fy = view.y_of(first);
    growth_.clear();
    for (int y = 0, id = 0; y < view.height; ++y) {
        for (int x = 0; x < view.width; ++x, ++id) {
            const auto core = static_cast<CoreId>(id);
            if (!view.allocatable[core] || core == first) {
                continue;
            }
            int dist = std::abs(x - fx) + std::abs(y - fy);
            if (test_aware && !view.testing.empty() && view.testing[core]) {
                dist += testing_penalty_hops;
            }
            const double crit = test_aware && !view.criticality.empty()
                                    ? view.criticality[core]
                                    : 0.0;
            growth_.push_back({dist, crit, core});
        }
    }
    const auto picked =
        growth_.begin() + static_cast<std::ptrdiff_t>(count - 1);
    std::partial_sort(growth_.begin(), picked, growth_.end(),
                      [](const GrowthKey& a, const GrowthKey& b) {
                          if (a.dist != b.dist) {
                              return a.dist < b.dist;
                          }
                          if (a.crit != b.crit) {
                              return a.crit < b.crit;
                          }
                          return a.id < b.id;
                      });
    result.cores.reserve(count);
    result.cores.push_back(first);
    for (auto it = growth_.begin(); it != picked; ++it) {
        result.cores.push_back(it->id);
    }
}

std::optional<MappingResult> ContiguousMapper::map(const MapRequest& request,
                                                   const PlatformView& view,
                                                   Rng&) {
    validate(request, view);
    if (build_tables(view) < request.core_count) {
        return std::nullopt;
    }
    // First-node selection: the square that must host the region has side
    // ceil(sqrt(n)); score candidates by weighted contiguity within radius
    // ceil(side/2).
    const int side = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(request.core_count))));
    const int radius = (side + 1) / 2;
    MappingResult result;
    result.first_node = select_first_node(view, radius);
    // Region growth: CoNA-style nearest-neighbour growth; the criticality
    // tie-break and the distance penalty on cores whose test a claim would
    // abort are the test-aware refinements.
    grow_region(view, request.core_count, result);
    return result;
}

std::optional<MappingResult> RandomMapper::map(const MapRequest& request,
                                               const PlatformView& view,
                                               Rng& rng) {
    validate(request, view);
    std::vector<CoreId> pool;
    for (std::size_t id = 0; id < view.core_count(); ++id) {
        if (view.allocatable[id]) {
            pool.push_back(static_cast<CoreId>(id));
        }
    }
    if (pool.size() < request.core_count) {
        return std::nullopt;
    }
    rng.shuffle(std::span<CoreId>(pool));
    MappingResult result;
    result.cores.assign(pool.begin(),
                        pool.begin() + static_cast<std::ptrdiff_t>(
                                           request.core_count));
    result.first_node = result.cores.front();
    return result;
}

std::optional<MappingResult> FirstFitMapper::map(const MapRequest& request,
                                                 const PlatformView& view,
                                                 Rng&) {
    validate(request, view);
    MappingResult result;
    for (std::size_t id = 0;
         id < view.core_count() && result.cores.size() < request.core_count;
         ++id) {
        if (view.allocatable[id]) {
            result.cores.push_back(static_cast<CoreId>(id));
        }
    }
    if (result.cores.size() < request.core_count) {
        return std::nullopt;
    }
    result.first_node = result.cores.front();
    return result;
}

}  // namespace mcs
