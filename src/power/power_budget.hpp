#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "util/stats.hpp"

namespace mcs {

/// Tracks the chip power budget (TDP), the instantaneous slack available to
/// the test scheduler, and any budget violations observed over a run.
class PowerBudget {
public:
    explicit PowerBudget(double tdp_w, double violation_margin_w = 0.0);

    double tdp_w() const noexcept { return tdp_w_; }

    /// Retargets the budget mid-run (scenario directive: a rack-level power
    /// cut or thermal derating changes the chip's allowance). Violation
    /// accounting simply continues against the new cap; the PID setpoint
    /// follows automatically because it is derived from tdp_w() per epoch.
    void set_tdp(double tdp_w);

    /// Records a power sample at `now`; updates violation accounting.
    void record(SimTime now, double power_w);

    /// Budget headroom for the last recorded sample (>= 0).
    double slack_w() const noexcept;
    double last_power_w() const noexcept { return last_power_w_; }

    std::uint64_t samples() const noexcept { return samples_; }
    std::uint64_t violations() const noexcept { return violations_; }
    double violation_rate() const noexcept;
    /// Worst overshoot above TDP seen so far, in watts (0 if never violated).
    double worst_overshoot_w() const noexcept { return worst_overshoot_w_; }
    /// Time-weighted statistics of recorded power.
    const RunningStats& power_stats() const noexcept { return stats_; }

    // ---- snapshot support ----
    /// The sample accounting as one object. The TDP and the margin are
    /// configuration and stay out (a scenario's set_tdp is replayed).
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    double tdp_w_;
    double margin_w_;
    double last_power_w_ = 0.0;
    std::uint64_t samples_ = 0;
    std::uint64_t violations_ = 0;
    double worst_overshoot_w_ = 0.0;
    RunningStats stats_;
};

}  // namespace mcs
