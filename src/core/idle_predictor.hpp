#pragma once

#include <vector>

#include "arch/core.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"

namespace mcs {

/// Per-core idle-period predictor (extension; see DESIGN.md).
///
/// An "availability period" of a core runs from the moment it stops being
/// reserved by any application until the mapper claims it again. Tests that
/// outlive the period get aborted, wasting power; predicting the period
/// lets the scheduler start only tests that are likely to finish.
///
/// The predictor keeps an EWMA over each core's completed availability
/// periods and predicts the remaining time of an ongoing period as
/// max(0, ewma - elapsed). Cold cores (no history) predict `initial_guess`.
class IdlePredictor {
public:
    explicit IdlePredictor(std::size_t core_count,
                           double ewma_alpha = 0.25,
                           SimDuration initial_guess = 10 * kMillisecond);

    /// The core just became available (unreserved).
    void notify_available(CoreId core, SimTime now);

    /// The core just became unavailable (reserved by the mapper or
    /// decommissioned); closes the ongoing period, if any.
    void notify_unavailable(CoreId core, SimTime now);

    /// Predicted remaining availability of a currently available core.
    /// Returns 0 for cores not currently in a period.
    SimDuration predict_remaining(CoreId core, SimTime now) const;

    /// EWMA of completed period lengths (the raw prediction basis).
    SimDuration expected_period(CoreId core) const;

    std::uint64_t completed_periods() const noexcept { return completed_; }

    // ---- snapshot support ----
    /// The per-core EWMAs, period stamps and flags plus the completed
    /// count as one object; load_state checks the vectors against the
    /// core count.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    double alpha_;
    std::vector<double> ewma_ns_;
    std::vector<SimTime> period_start_;  ///< 0 = not in a period
    std::vector<bool> in_period_;
    std::uint64_t completed_ = 0;
};

}  // namespace mcs
