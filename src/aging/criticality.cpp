#include "aging/criticality.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

const char* to_string(CriticalityMode mode) {
    switch (mode) {
        case CriticalityMode::UtilizationDriven: return "utilization";
        case CriticalityMode::TimeDriven: return "time";
        case CriticalityMode::Hybrid: return "hybrid";
    }
    return "?";
}

CriticalityParams CriticalityParams::for_mode(CriticalityMode mode) {
    CriticalityParams p;
    p.mode = mode;
    switch (mode) {
        case CriticalityMode::UtilizationDriven:
            p.w_util = 0.7;
            p.w_time = 0.3;
            p.w_aging = 0.0;
            break;
        case CriticalityMode::TimeDriven:
            p.w_util = 0.0;
            p.w_time = 1.0;
            p.w_aging = 0.0;
            break;
        case CriticalityMode::Hybrid:
            p.w_util = 0.5;
            p.w_time = 0.25;
            p.w_aging = 0.25;
            break;
    }
    return p;
}

CriticalityEvaluator::CriticalityEvaluator(CriticalityParams params)
    : params_(params) {
    MCS_REQUIRE(params_.util_ref_cycles > 0.0,
                "utilization reference must be positive");
    MCS_REQUIRE(params_.time_ref > 0, "time reference must be positive");
    MCS_REQUIRE(params_.saturation > 0.0, "saturation must be positive");
    MCS_REQUIRE(params_.w_util >= 0.0 && params_.w_time >= 0.0 &&
                    params_.w_aging >= 0.0,
                "criticality weights must be non-negative");
    MCS_REQUIRE(params_.w_util + params_.w_time + params_.w_aging > 0.0,
                "at least one criticality weight must be positive");
}

double CriticalityEvaluator::evaluate(const Core& core, SimTime now,
                                      double damage_norm) const {
    const double util_term =
        std::min(static_cast<double>(core.busy_cycles_since_test()) /
                     params_.util_ref_cycles,
                 params_.saturation);
    const SimTime last_test_end = core.last_test_end();
    const SimTime since = now >= last_test_end ? now - last_test_end : 0;
    const double time_term =
        std::min(static_cast<double>(since) /
                     static_cast<double>(params_.time_ref),
                 params_.saturation);
    const double aging_term = std::clamp(damage_norm, 0.0, 1.0);
    return params_.w_util * util_term + params_.w_time * time_term +
           params_.w_aging * aging_term;
}

std::vector<double> CriticalityEvaluator::evaluate_chip(
    const Chip& chip, SimTime now, std::span<const double> damage) const {
    std::vector<double> out;
    evaluate_chip_into(chip, now, damage, out);
    return out;
}

void CriticalityEvaluator::evaluate_chip_into(const Chip& chip, SimTime now,
                                              std::span<const double> damage,
                                              std::vector<double>& out) const {
    double max_damage = 0.0;
    for (double d : damage) {
        max_damage = std::max(max_damage, d);
    }
    out.resize(chip.core_count());
    for (const Core& c : chip.cores()) {
        double norm = 0.0;
        if (!damage.empty() && max_damage > 0.0) {
            norm = damage[c.id()] / max_damage;
        }
        out[c.id()] = evaluate(c, now, norm);
    }
}

}  // namespace mcs
