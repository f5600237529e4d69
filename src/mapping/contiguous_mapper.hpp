#pragma once

#include <string>
#include <utility>
#include <vector>

#include "mapping/mapper.hpp"

namespace mcs {

/// Scoring weights for first-node selection. The base contiguity term is
/// SHiC-style: how many allocatable cores sit inside the square of the
/// application's size centred on the candidate. The utilization and
/// criticality terms implement the paper's "utilization-oriented" and
/// "test-aware" extensions; zero weights recover the plain contiguous
/// (CoNA-style) baseline.
struct MappingWeights {
    double w_contiguity = 1.0;
    double w_utilization = 0.0;  ///< penalize worn regions (wear leveling)
    double w_criticality = 0.0;  ///< keep test-critical cores out of regions
    /// Penalize thermally hot regions (normalized by `temp_scale_c` above
    /// `temp_ref_c`); spreads heat and lowers leakage.
    double w_temperature = 0.0;
    double temp_ref_c = 45.0;
    double temp_scale_c = 40.0;
};

/// Contiguous runtime mapper: SHiC-style square-factor first-node selection
/// followed by nearest-first region growth. With non-zero utilization /
/// criticality weights it becomes the paper's test-aware utilization-
/// oriented mapper (TAUM).
///
/// `map` returns what a full scan returns: the allocatable core with the
/// highest `first_node_score` (the lowest id on ties) and then the other
/// allocatable cores in growth order. It does less work to get there. Two
/// summed-area tables give every candidate an upper bound on its score, so
/// only candidates whose bound reaches the best exact score so far are
/// scored; the growth order is one partial sort. The argument is in
/// contiguous_mapper.cpp and docs/hot_paths.md. It needs non-negative
/// weights and `temp_scale_c > 0` (checked on construction) and finite
/// inputs with utilization and criticality non-negative (checked per call).
class ContiguousMapper : public Mapper {
public:
    ContiguousMapper(std::string name, MappingWeights weights = {});

    std::optional<MappingResult> map(const MapRequest& request,
                                     const PlatformView& view,
                                     Rng& rng) override;
    std::string_view name() const override { return name_; }

    const MappingWeights& weights() const noexcept { return weights_; }

    /// Factory helpers for the configurations the evaluation compares.
    static ContiguousMapper plain() {
        return ContiguousMapper("contiguous", MappingWeights{1.0, 0.0, 0.0});
    }
    static ContiguousMapper utilization_oriented() {
        return ContiguousMapper("util-oriented", MappingWeights{1.0, 0.5, 0.0});
    }
    static ContiguousMapper test_aware() {
        return ContiguousMapper("test-aware (TAUM)",
                                MappingWeights{1.0, 0.4, 0.6});
    }
    static ContiguousMapper thermal_aware() {
        MappingWeights w{1.0, 0.4, 0.6};
        w.w_temperature = 0.6;
        return ContiguousMapper("thermal-aware", w);
    }

private:
    /// Region-growth sort key of one allocatable core.
    struct GrowthKey {
        int dist;     ///< hops from the first node, plus the testing penalty
        double crit;  ///< criticality when test-aware, else 0
        CoreId id;
    };

    /// The one exact scorer: weighted contiguity minus the mean
    /// utilization, criticality and temperature penalties of the
    /// (2r+1)^2 window around `candidate`, summed in row-major order.
    double first_node_score(const PlatformView& view, CoreId candidate,
                            int radius) const;
    /// The temperature penalty of one cell, as `first_node_score` sums it.
    double temperature_term(double temp_c) const;
    /// Checks the view's values and fills both summed-area tables; returns
    /// the number of allocatable cores.
    std::size_t build_tables(const PlatformView& view);
    /// The highest-scoring allocatable core, lowest id on ties.
    CoreId select_first_node(const PlatformView& view, int radius);
    /// Fills `result.cores`: the first node, then the `count - 1` other
    /// allocatable cores in growth order.
    void grow_region(const PlatformView& view, std::size_t count,
                     MappingResult& result);

    std::string name_;
    MappingWeights weights_;
    // Per-call working buffers, members so their capacity is reused.
    std::vector<int> free_table_;        ///< summed-area table of allocatable
    std::vector<double> penalty_table_;  ///< summed-area table of penalties
    std::vector<std::pair<CoreId, double>> bounds_;  ///< candidate, bound
    std::vector<GrowthKey> growth_;
};

/// Baseline: picks random allocatable cores with no contiguity constraint.
class RandomMapper : public Mapper {
public:
    std::optional<MappingResult> map(const MapRequest& request,
                                     const PlatformView& view,
                                     Rng& rng) override;
    std::string_view name() const override { return "random"; }
};

/// Baseline: row-major first-fit scan.
class FirstFitMapper : public Mapper {
public:
    std::optional<MappingResult> map(const MapRequest& request,
                                     const PlatformView& view,
                                     Rng& rng) override;
    std::string_view name() const override { return "first-fit"; }
};

}  // namespace mcs
