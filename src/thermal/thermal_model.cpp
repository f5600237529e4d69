#include "thermal/thermal_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace mcs {

ThermalModel::ThermalModel(int width, int height, ThermalParams params)
    : width_(width), height_(height), params_(params) {
    MCS_REQUIRE(width_ > 0 && height_ > 0,
                "thermal grid dimensions must be positive");
    MCS_REQUIRE(params_.heat_capacity_j_per_k > 0.0,
                "heat capacity must be positive");
    MCS_REQUIRE(params_.g_vertical_w_per_k > 0.0,
                "vertical conductance must be positive");
    MCS_REQUIRE(params_.g_lateral_w_per_k >= 0.0,
                "lateral conductance must be non-negative");
    MCS_REQUIRE(params_.max_dt_s > 0.0, "max step must be positive");
    // Explicit Euler stability: dt < C / (Gv + 4*Gl). Enforce a margin.
    const double g_total =
        params_.g_vertical_w_per_k + 4.0 * params_.g_lateral_w_per_k;
    MCS_REQUIRE(params_.max_dt_s < params_.heat_capacity_j_per_k / g_total,
                "max_dt_s violates explicit-Euler stability bound");
    const std::size_t n = static_cast<std::size_t>(width_) *
                          static_cast<std::size_t>(height_);
    temps_.assign(n, params_.ambient_c);
    scratch_.assign(n, 0.0);
}

void ThermalModel::step(std::span<const double> power_w, double dt_s) {
    MCS_REQUIRE(power_w.size() == temps_.size(),
                "power vector size mismatch");
    MCS_REQUIRE(dt_s >= 0.0, "negative thermal step");
    while (dt_s > 0.0) {
        const double sub = std::min(dt_s, params_.max_dt_s);
        euler_substep(power_w, sub);
        dt_s -= sub;
    }
}

double ThermalModel::node_update(std::span<const double> power_w,
                                 double dt_s, std::size_t i) const {
    const std::vector<double>& t = temps_;
    const double gv = params_.g_vertical_w_per_k;
    const double gl = params_.g_lateral_w_per_k;
    const double inv_c = 1.0 / params_.heat_capacity_j_per_k;
    const int x = static_cast<int>(i) % width_;
    const int y = static_cast<int>(i) / width_;
    double flow = power_w[i] - gv * (t[i] - params_.ambient_c);
    if (x > 0) flow -= gl * (t[i] - t[i - 1]);
    if (x + 1 < width_) flow -= gl * (t[i] - t[i + 1]);
    if (y > 0)
        flow -= gl * (t[i] - t[i - static_cast<std::size_t>(width_)]);
    if (y + 1 < height_)
        flow -= gl * (t[i] - t[i + static_cast<std::size_t>(width_)]);
    return t[i] + dt_s * flow * inv_c;
}

void ThermalModel::euler_substep(std::span<const double> power_w,
                                 double dt_s) {
    // Double-buffered: every node reads temps_ and writes only scratch_[i];
    // the swap is the commit.
    const std::size_t n = temps_.size();
    for (std::size_t i = 0; i < n; ++i) {
        scratch_[i] = node_update(power_w, dt_s, i);
    }
    temps_.swap(scratch_);
}

double ThermalModel::temp_c(std::size_t core) const {
    MCS_REQUIRE(core < temps_.size(), "core index out of range");
    return temps_[core];
}

double ThermalModel::max_temp_c() const {
    return *std::max_element(temps_.begin(), temps_.end());
}

double ThermalModel::mean_temp_c() const {
    double sum = 0.0;
    for (double t : temps_) {
        sum += t;
    }
    return sum / static_cast<double>(temps_.size());
}

double ThermalModel::isolated_steady_state_c(double power_w) const {
    return params_.ambient_c + power_w / params_.g_vertical_w_per_k;
}

void ThermalModel::save_state(telemetry::JsonWriter& w) const {
    w.begin_array();
    for (double t : temps_) {
        w.value(t);
    }
    w.end_array();
}

void ThermalModel::load_state(const telemetry::JsonValue& doc) {
    std::vector<double> temps = doc.numbers();
    MCS_REQUIRE(temps.size() == temps_.size(),
                "thermal state: node count mismatch");
    temps_ = std::move(temps);
}

}  // namespace mcs
