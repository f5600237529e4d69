#pragma once

#include <span>
#include <vector>

#include "arch/chip.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"

namespace mcs {

/// Wear-out model parameters. Damage is a dimensionless accumulator: a core
/// continuously busy at the reference temperature reaches 1.0 after
/// `nominal_lifetime_s` (Arrhenius-style temperature acceleration on top).
/// Only relative per-core differences matter for test criticality and
/// fault-rate acceleration, so the absolute scale is a free choice.
struct AgingParams {
    double nominal_lifetime_s = 1.0e8;   ///< ~3 years busy at T_ref
    double ref_temp_c = 60.0;
    double temp_accel_slope_c = 12.0;    ///< e-fold damage rate per 12 C
    /// Stress factors per activity class relative to busy work.
    double stress_busy = 1.0;
    double stress_test = 0.8;
    double stress_idle = 0.05;
};

/// Tracks per-core accumulated wear. Updated at the aging epoch using each
/// core's current state and temperature; state changes within one epoch are
/// approximated by the state seen at the epoch boundary.
class AgingTracker {
public:
    /// Every core starts pristine (zero damage).
    explicit AgingTracker(std::size_t core_count, AgingParams params = {});

    /// Integrates damage over [last update, now].
    void update(SimTime now, const Chip& chip,
                std::span<const double> temps_c);

    double damage(CoreId id) const;
    std::span<const double> damage_all() const noexcept { return damage_; }
    double max_damage() const;
    double min_damage() const;
    double mean_damage() const;

    /// Fault-rate acceleration factor for the fault injector: 1.0 for a
    /// pristine core, growing with damage.
    double fault_acceleration(CoreId id) const;

    /// Adds `amount` of wear to one core directly (scenario directive:
    /// accelerated-aging stress). Bypasses the state/temperature
    /// integration; the continuous model continues from the raised level.
    void add_damage(CoreId id, double amount);

    const AgingParams& params() const noexcept { return params_; }

    /// Instantaneous damage rate (1/s) for a state/temperature combination;
    /// exposed for tests and what-if analyses.
    double damage_rate_per_s(CoreState state, double temp_c) const;

    // ---- snapshot support ----
    /// Per-core damage and the update clock as one object; load_state
    /// checks the damage vector against the core count.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    AgingParams params_;
    std::vector<double> damage_;  ///< accumulated wear, by core id
    SimTime last_update_ = 0;
    bool started_ = false;
};

}  // namespace mcs
