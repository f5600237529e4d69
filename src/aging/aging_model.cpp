#include "aging/aging_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace mcs {

AgingTracker::AgingTracker(std::size_t core_count, AgingParams params)
    : params_(params) {
    MCS_REQUIRE(core_count > 0, "aging tracker needs at least one core");
    MCS_REQUIRE(params_.nominal_lifetime_s > 0.0,
                "nominal lifetime must be positive");
    MCS_REQUIRE(params_.temp_accel_slope_c > 0.0,
                "temperature slope must be positive");
    damage_.assign(core_count, 0.0);
}

double AgingTracker::damage_rate_per_s(CoreState state, double temp_c) const {
    double stress = 0.0;
    switch (state) {
        case CoreState::Busy: stress = params_.stress_busy; break;
        case CoreState::Testing: stress = params_.stress_test; break;
        case CoreState::Idle: stress = params_.stress_idle; break;
        case CoreState::Dark:
        case CoreState::Faulty: return 0.0;
    }
    const double accel =
        std::exp((temp_c - params_.ref_temp_c) / params_.temp_accel_slope_c);
    return stress * accel / params_.nominal_lifetime_s;
}

void AgingTracker::update(SimTime now, const Chip& chip,
                          std::span<const double> temps_c) {
    MCS_REQUIRE(chip.core_count() == damage_.size(),
                "chip size does not match aging tracker");
    if (!started_) {
        started_ = true;
        last_update_ = now;
        return;
    }
    MCS_REQUIRE(now >= last_update_, "aging update going backwards");
    const double dt_s = to_seconds(now - last_update_);
    last_update_ = now;
    if (dt_s <= 0.0) {
        return;
    }
    for (const Core& c : chip.cores()) {
        const double temp =
            temps_c.empty() ? params_.ref_temp_c : temps_c[c.id()];
        damage_[c.id()] += damage_rate_per_s(c.state(), temp) * dt_s;
    }
}

double AgingTracker::damage(CoreId id) const {
    MCS_REQUIRE(id < damage_.size(), "core id out of range");
    return damage_[id];
}

double AgingTracker::max_damage() const {
    return *std::max_element(damage_.begin(), damage_.end());
}

double AgingTracker::min_damage() const {
    return *std::min_element(damage_.begin(), damage_.end());
}

double AgingTracker::mean_damage() const {
    double sum = 0.0;
    for (double d : damage_) {
        sum += d;
    }
    return sum / static_cast<double>(damage_.size());
}

void AgingTracker::add_damage(CoreId id, double amount) {
    MCS_REQUIRE(id < damage_.size(), "core id out of range");
    MCS_REQUIRE(amount >= 0.0, "wear increment must be non-negative");
    damage_[id] += amount;
}

double AgingTracker::fault_acceleration(CoreId id) const {
    // Linear-plus-quadratic escalation: pristine core -> 1.0; damage 1.0
    // (end of nominal life) -> 1 + 50 + 400 = hundreds of times the base
    // rate, which matches the bathtub-curve wear-out regime qualitatively.
    const double d = damage(id);
    return 1.0 + 50.0 * d + 400.0 * d * d;
}


void AgingTracker::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("damage");
    w.begin_array();
    for (double d : damage_) {
        w.value(d);
    }
    w.end_array();
    w.field("last_update", last_update_);
    w.field("started", started_);
    w.end_object();
}

void AgingTracker::load_state(const telemetry::JsonValue& doc) {
    std::vector<double> damage = doc.at("damage").numbers();
    MCS_REQUIRE(damage.size() == damage_.size(),
                "aging state: core count mismatch");
    damage_ = std::move(damage);
    last_update_ = doc.at("last_update").u64();
    started_ = doc.at("started").boolean();
}

}  // namespace mcs
