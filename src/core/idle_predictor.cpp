#include "core/idle_predictor.hpp"

#include <algorithm>
#include <utility>

#include "util/require.hpp"

namespace mcs {

IdlePredictor::IdlePredictor(std::size_t core_count, double ewma_alpha,
                             SimDuration initial_guess)
    : alpha_(ewma_alpha),
      ewma_ns_(core_count, static_cast<double>(initial_guess)),
      period_start_(core_count, 0),
      in_period_(core_count, false) {
    MCS_REQUIRE(core_count > 0, "predictor needs cores");
    MCS_REQUIRE(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                "EWMA alpha must be in (0,1]");
}

void IdlePredictor::notify_available(CoreId core, SimTime now) {
    MCS_REQUIRE(core < in_period_.size(), "core id out of range");
    if (in_period_[core]) {
        return;  // already in a period
    }
    in_period_[core] = true;
    period_start_[core] = now;
}

void IdlePredictor::notify_unavailable(CoreId core, SimTime now) {
    MCS_REQUIRE(core < in_period_.size(), "core id out of range");
    if (!in_period_[core]) {
        return;
    }
    MCS_REQUIRE(now >= period_start_[core], "period ends before it starts");
    const auto length = static_cast<double>(now - period_start_[core]);
    ewma_ns_[core] = alpha_ * length + (1.0 - alpha_) * ewma_ns_[core];
    in_period_[core] = false;
    ++completed_;
}

SimDuration IdlePredictor::predict_remaining(CoreId core,
                                             SimTime now) const {
    MCS_REQUIRE(core < in_period_.size(), "core id out of range");
    if (!in_period_[core]) {
        return 0;
    }
    const double elapsed =
        static_cast<double>(now - period_start_[core]);
    return static_cast<SimDuration>(
        std::max(0.0, ewma_ns_[core] - elapsed));
}

SimDuration IdlePredictor::expected_period(CoreId core) const {
    MCS_REQUIRE(core < ewma_ns_.size(), "core id out of range");
    return static_cast<SimDuration>(ewma_ns_[core]);
}


void IdlePredictor::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("ewma");
    w.begin_array();
    for (double v : ewma_ns_) {
        w.value(v);
    }
    w.end_array();
    w.key("period_start");
    w.begin_array();
    for (SimTime t : period_start_) {
        w.value(t);
    }
    w.end_array();
    w.key("in_period");
    w.begin_array();
    for (bool b : in_period_) {
        w.value(b);
    }
    w.end_array();
    w.field("completed", completed_);
    w.end_object();
}

void IdlePredictor::load_state(const telemetry::JsonValue& doc) {
    std::vector<double> ewma_ns = doc.at("ewma").numbers();
    std::vector<SimTime> period_start = doc.at("period_start").u64s();
    std::vector<bool> in_period = doc.at("in_period").booleans();
    MCS_REQUIRE(ewma_ns.size() == ewma_ns_.size() &&
                    period_start.size() == period_start_.size() &&
                    in_period.size() == in_period_.size(),
                "idle predictor state: core count mismatch");
    ewma_ns_ = std::move(ewma_ns);
    period_start_ = std::move(period_start);
    in_period_ = std::move(in_period);
    completed_ = doc.at("completed").u64();
}

}  // namespace mcs
