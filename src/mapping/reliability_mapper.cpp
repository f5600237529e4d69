#include "mapping/reliability_mapper.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace mcs {

ReliabilityWeightedMapper::ReliabilityWeightedMapper(
    ReliabilityWeights weights)
    : weights_(weights) {
    MCS_REQUIRE(weights_.w_utilization >= 0.0 &&
                    weights_.w_criticality >= 0.0 &&
                    weights_.w_temperature >= 0.0 &&
                    weights_.w_testing >= 0.0,
                "reliability weights must be non-negative");
    MCS_REQUIRE(weights_.temp_scale_c > 0.0,
                "temperature scale must be positive");
}

double ReliabilityWeightedMapper::core_weight(const PlatformView& view,
                                              CoreId id) const {
    const double u = view.utilization[id];
    const double c = view.criticality[id];
    MCS_REQUIRE(std::isfinite(u) && u >= 0.0,
                "utilization must be finite and non-negative");
    MCS_REQUIRE(std::isfinite(c) && c >= 0.0,
                "criticality must be finite and non-negative");
    double w = weights_.w_utilization * u + weights_.w_criticality * c;
    if (!view.temperature_c.empty()) {
        const double temp = view.temperature_c[id];
        MCS_REQUIRE(std::isfinite(temp), "temperature must be finite");
        const double t = (temp - weights_.temp_ref_c) / weights_.temp_scale_c;
        w += weights_.w_temperature * std::clamp(t, 0.0, 1.0);
    }
    if (!view.testing.empty() && view.testing[id] != 0) {
        w += weights_.w_testing;
    }
    return w;
}

std::optional<MappingResult> ReliabilityWeightedMapper::map(
    const MapRequest& request, const PlatformView& view, Rng& rng) {
    (void)rng;  // deterministic policy: no random draws
    validate(request, view);
    const std::size_t n = view.core_count();
    // Every core's weight reads its utilization and criticality.
    MCS_REQUIRE(view.utilization.size() == n,
                "reliability-weighted mapping needs utilization per core");
    MCS_REQUIRE(view.criticality.size() == n,
                "reliability-weighted mapping needs criticality per core");
    std::vector<std::pair<double, CoreId>> scored;
    for (CoreId id = 0; id < n; ++id) {
        if (view.allocatable[id] == 0) {
            continue;
        }
        scored.emplace_back(core_weight(view, id), id);
    }
    if (scored.size() < request.core_count) {
        return std::nullopt;
    }
    // Healthiest first; ties by core id keep the pick reproducible.
    std::sort(scored.begin(), scored.end());
    MappingResult result;
    result.cores.reserve(request.core_count);
    for (std::size_t i = 0; i < request.core_count; ++i) {
        result.cores.push_back(scored[i].second);
    }
    result.first_node = result.cores.front();
    return result;
}

}  // namespace mcs
