#include "power/power_budget.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

PowerBudget::PowerBudget(double tdp_w, double violation_margin_w)
    : tdp_w_(tdp_w), margin_w_(violation_margin_w) {
    MCS_REQUIRE(tdp_w_ > 0.0, "TDP must be positive");
    MCS_REQUIRE(margin_w_ >= 0.0, "violation margin must be non-negative");
}

void PowerBudget::set_tdp(double tdp_w) {
    MCS_REQUIRE(tdp_w > 0.0, "TDP must be positive");
    tdp_w_ = tdp_w;
}

void PowerBudget::record(SimTime, double power_w) {
    last_power_w_ = power_w;
    ++samples_;
    stats_.add(power_w);
    if (power_w > tdp_w_ + margin_w_) {
        ++violations_;
        worst_overshoot_w_ = std::max(worst_overshoot_w_, power_w - tdp_w_);
    }
}

double PowerBudget::slack_w() const noexcept {
    return std::max(0.0, tdp_w_ - last_power_w_);
}

double PowerBudget::violation_rate() const noexcept {
    if (samples_ == 0) {
        return 0.0;
    }
    return static_cast<double>(violations_) / static_cast<double>(samples_);
}

void PowerBudget::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.field("last_power_w", last_power_w_);
    w.field("samples", samples_);
    w.field("violations", violations_);
    w.field("worst_overshoot_w", worst_overshoot_w_);
    w.key("stats");
    telemetry::write_running_stats(w, stats_);
    w.end_object();
}

void PowerBudget::load_state(const telemetry::JsonValue& doc) {
    last_power_w_ = doc.at("last_power_w").number();
    samples_ = doc.at("samples").u64();
    violations_ = doc.at("violations").u64();
    worst_overshoot_w_ = doc.at("worst_overshoot_w").number();
    stats_ = telemetry::read_running_stats(doc.at("stats"));
}

}  // namespace mcs
