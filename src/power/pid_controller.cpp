#include "power/pid_controller.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

PidController::PidController(PidParams params) : params_(params) {
    MCS_REQUIRE(params_.out_min < params_.out_max,
                "PID output range must be non-empty");
    MCS_REQUIRE(params_.integral_limit >= 0.0,
                "integral limit must be non-negative");
}

double PidController::update(double error, double dt_s) {
    MCS_REQUIRE(dt_s > 0.0, "PID step must be positive");
    integral_ = std::clamp(integral_ + error * dt_s,
                           -params_.integral_limit, params_.integral_limit);
    double derivative = 0.0;
    if (has_prev_) {
        derivative = (error - prev_error_) / dt_s;
    }
    prev_error_ = error;
    has_prev_ = true;
    const double raw = params_.kp * error + params_.ki * integral_ +
                       params_.kd * derivative;
    last_output_ = std::clamp(raw, params_.out_min, params_.out_max);
    return last_output_;
}

void PidController::reset() {
    integral_ = 0.0;
    prev_error_ = 0.0;
    has_prev_ = false;
    last_output_ = 0.0;
}

void PidController::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.field("integral", integral_);
    w.field("prev_error", prev_error_);
    w.field("has_prev", has_prev_);
    w.field("last_output", last_output_);
    w.end_object();
}

void PidController::load_state(const telemetry::JsonValue& doc) {
    integral_ = doc.at("integral").number();
    prev_error_ = doc.at("prev_error").number();
    has_prev_ = doc.at("has_prev").boolean();
    last_output_ = doc.at("last_output").number();
}

}  // namespace mcs
