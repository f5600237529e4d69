#pragma once

#include "telemetry/json.hpp"

namespace mcs {

/// PID gains and output clamps. Output is a dimensionless actuation signal;
/// the power manager interprets it as "fraction of busy cores to step up or
/// down one DVFS level this epoch".
/// Defaults are tuned for a normalized error ((TDP - P)/TDP) sampled every
/// ~100 us: proportional-dominant, a slow integral to remove steady-state
/// offset, and a tiny derivative (the raw derivative is error/dt, so kd must
/// be of order dt to contribute O(1)).
struct PidParams {
    double kp = 0.8;
    double ki = 25.0;
    double kd = 5.0e-5;
    double out_min = -1.0;
    double out_max = 1.0;
    /// Integral state clamp (anti-windup); ki * integral_limit bounds the
    /// integral contribution to the output.
    double integral_limit = 0.04;
};

/// Textbook discrete PID controller with clamped integral (anti-windup).
/// Reproduces the ICCD'14 dark-silicon power-capping substrate: the error
/// fed in is (TDP - measured chip power), normalized by TDP.
class PidController {
public:
    explicit PidController(PidParams params);

    /// Advances the controller by `dt_s` seconds with the given error and
    /// returns the clamped actuation output.
    double update(double error, double dt_s);

    void reset();

    double last_output() const noexcept { return last_output_; }

    // ---- snapshot support ----
    /// Integrator, derivative memory and last output as one object.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    PidParams params_;
    double integral_ = 0.0;
    double prev_error_ = 0.0;
    bool has_prev_ = false;
    double last_output_ = 0.0;
};

}  // namespace mcs
