#pragma once

#include <span>
#include <vector>

#include "arch/chip.hpp"
#include "sim/time.hpp"

namespace mcs {

/// Which signals drive the test-criticality metric. DATE'15 drives it from
/// core utilization (stress since last test); the TC'16 extension adds the
/// aging estimate. The pure time-driven mode exists as an ablation baseline
/// (it degenerates to round-robin periodic testing).
enum class CriticalityMode { UtilizationDriven, TimeDriven, Hybrid };

const char* to_string(CriticalityMode mode);

/// Parameters of the criticality metric
///   crit(c) = w_u * min(busy_cycles_since_test / util_ref_cycles, sat)
///           + w_t * min(time_since_test / time_ref, sat)
///           + w_a * damage_norm(c)
/// A core is eligible for test scheduling once crit(c) >= threshold; the
/// scheduler serves eligible cores in descending criticality.
struct CriticalityParams {
    CriticalityMode mode = CriticalityMode::UtilizationDriven;
    double w_util = 0.7;
    double w_time = 0.3;
    double w_aging = 0.0;   ///< used by Hybrid
    /// Busy cycles since the last test that count as "full stress".
    double util_ref_cycles = 1.0e9;
    /// Wall time since the last test that counts as "stale".
    SimDuration time_ref = 2 * kSecond;
    /// Saturation of each normalized term (so one term cannot dominate
    /// unboundedly).
    double saturation = 2.0;
    /// Scheduling threshold.
    double threshold = 0.5;

    /// Preset weight profiles for the three modes.
    static CriticalityParams for_mode(CriticalityMode mode);
};

/// Evaluates the paper's test-criticality metric for cores.
class CriticalityEvaluator {
public:
    explicit CriticalityEvaluator(CriticalityParams params = {});

    /// Criticality of one core. `damage_norm` is the core's aging damage
    /// normalized to the chip maximum (pass 0 when aging is not tracked).
    double evaluate(const Core& core, SimTime now, double damage_norm) const;

    /// Evaluates every core of a chip; `damage` may be empty (treated as 0)
    /// and is normalized internally by its max.
    std::vector<double> evaluate_chip(const Chip& chip, SimTime now,
                                      std::span<const double> damage) const;

    /// In-place variant reusing the caller's buffer (resized to the core
    /// count).
    void evaluate_chip_into(const Chip& chip, SimTime now,
                            std::span<const double> damage,
                            std::vector<double>& out) const;

    bool eligible(double criticality) const noexcept {
        return criticality >= params_.threshold;
    }

    const CriticalityParams& params() const noexcept { return params_; }

private:
    CriticalityParams params_;
};

}  // namespace mcs
