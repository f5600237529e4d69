#pragma once

#include "mapping/mapper.hpp"

namespace mcs {

/// Scoring weights for the reliability-weighted mapper. Each allocatable
/// core gets a wear-risk weight
///
///   weight = w_utilization * util
///          + w_criticality * crit
///          + w_temperature * clamp((T - temp_ref_c) / temp_scale_c, 0, 1)
///          + w_testing     * [core is running an SBST session]
///
/// and the request takes the `core_count` lowest-weight cores. Lower weight
/// = healthier core, so load drifts away from worn / hot / test-critical
/// regions (NMR-style reliability-first placement), at the cost of
/// contiguity: the pick ignores adjacency entirely.
struct ReliabilityWeights {
    double w_utilization = 0.5;
    double w_criticality = 0.3;
    double w_temperature = 0.2;
    double w_testing = 0.25;
    double temp_ref_c = 45.0;
    double temp_scale_c = 40.0;
};

/// Reliability-weighted mapper (policy zoo): global lowest-wear-risk core
/// selection, ties broken by core id. Stateless and RNG-free, so mapping
/// decisions replay bit-identically and the policy needs no snapshot hooks.
/// Besides validate(), map() requires utilization and criticality for every
/// core.
class ReliabilityWeightedMapper : public Mapper {
public:
    explicit ReliabilityWeightedMapper(ReliabilityWeights weights = {});

    std::optional<MappingResult> map(const MapRequest& request,
                                     const PlatformView& view,
                                     Rng& rng) override;
    std::string_view name() const override { return "reliability-weighted"; }

    const ReliabilityWeights& weights() const noexcept { return weights_; }

    /// The wear-risk weight of one core under `view`; exposed so reference
    /// implementations (tests) can score independently. The view must hold
    /// utilization and criticality for `id`; each value read must be finite
    /// and non-negative, and a temperature finite (RequireError otherwise).
    double core_weight(const PlatformView& view, CoreId id) const;

private:
    ReliabilityWeights weights_;
};

}  // namespace mcs
