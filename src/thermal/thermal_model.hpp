#pragma once

#include <span>
#include <vector>

#include "telemetry/json.hpp"

namespace mcs {

/// Lumped-RC thermal parameters. Constants are modeling choices tuned to
/// give realistic steady-state gradients (a 2 W core sits ~25 C above
/// ambient) and a thermal time constant of ~0.1 s; see DESIGN.md.
struct ThermalParams {
    double ambient_c = 45.0;           ///< package/heat-sink reference
    double heat_capacity_j_per_k = 0.01;  ///< per core node
    double g_vertical_w_per_k = 0.08;  ///< core -> heat sink conductance
    double g_lateral_w_per_k = 0.25;   ///< core -> adjacent core conductance
    /// Max integration step; step() subdivides longer intervals for
    /// explicit-Euler stability.
    double max_dt_s = 1.0e-3;
};

/// Grid RC thermal model: one thermal node per core, vertical conductance to
/// ambient and lateral conductances to mesh neighbors, integrated with
/// explicit Euler. Feeds leakage (power model) and aging.
class ThermalModel {
public:
    /// Every node starts at ambient.
    ThermalModel(int width, int height, ThermalParams params = {});

    /// Advances temperatures by `dt_s` given per-core power (indexed by
    /// row-major core id, same layout as Chip).
    void step(std::span<const double> power_w, double dt_s);

    std::span<const double> temps_c() const noexcept { return temps_; }
    double temp_c(std::size_t core) const;
    double max_temp_c() const;
    double mean_temp_c() const;
    double ambient_c() const noexcept { return params_.ambient_c; }

    /// Analytic steady-state temperature of an isolated core dissipating
    /// `power_w` (ignores lateral coupling); useful for calibration tests.
    double isolated_steady_state_c(double power_w) const;

    /// Node temperatures as one array, row-major; load_state checks the
    /// node count.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

    int width() const noexcept { return width_; }
    int height() const noexcept { return height_; }

private:
    void euler_substep(std::span<const double> power_w, double dt_s);
    /// One node of the Euler substep: new temperature of flat index i.
    double node_update(std::span<const double> power_w, double dt_s,
                       std::size_t i) const;

    int width_;
    int height_;
    ThermalParams params_;
    std::vector<double> temps_;  ///< live temperatures, row-major
    /// Next temperatures of an Euler substep: explicit Euler must read
    /// every neighbour's old value, so the new ones go here first.
    std::vector<double> scratch_;
};

}  // namespace mcs
