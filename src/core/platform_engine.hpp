#pragma once

// PlatformEngine: the power-managed substrate (ICCD'14 companion). Owns
// the power model + PID capping manager, thermal and aging models, the
// criticality evaluator, and the optional fault injector; drives the
// periodic power / thermal / wear / trace epochs and the run's energy and
// state-residency accounting. Policies (mapping, test scheduling) live in
// the sibling engines and see this substrate only through SystemContext.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/criticality.hpp"
#include "core/snapshot.hpp"
#include "core/system_context.hpp"
#include "power/power_manager.hpp"
#include "power/power_model.hpp"
#include "sbst/fault_model.hpp"
#include "thermal/thermal_model.hpp"

namespace mcs {

class PlatformEngine {
public:
    /// Builds the substrate components from `ctx.cfg` and registers them
    /// (power model/manager, thermal, faults) in `ctx`.
    explicit PlatformEngine(SystemContext& ctx);
    PlatformEngine(const PlatformEngine&) = delete;
    PlatformEngine& operator=(const PlatformEngine&) = delete;

    // --- periodic controller epochs (wired to Simulator::every by the
    //     façade, in its canonical registration order) ---
    void power_epoch();
    void thermal_epoch();
    void wear_epoch();
    void trace_epoch();

    // --- substrate services for the sibling engines ---
    /// Re-evaluates per-core test criticality at `now` and returns it by
    /// core id (valid until the next refresh).
    const std::vector<double>& refresh_criticality(SimTime now);
    /// NoC static power plus in-flight link-test power.
    double noc_power_w() const;
    /// Refreshes the per-core power buffer and integrates the per-state
    /// energy split up to `now`.
    void accumulate_energy(SimTime now);

    PowerManager& power_manager() noexcept { return power_mgr_; }
    ThermalModel& thermal() noexcept { return thermal_; }
    const AgingTracker& aging_tracker() const noexcept { return aging_; }
    const FaultInjector* fault_injector() const noexcept {
        return faults_ ? &*faults_ : nullptr;
    }
    double peak_temp_c() const noexcept { return peak_temp_c_; }

    // --- scenario-directive seams ---
    /// Plants a specific latent fault now (no RNG draw; the stochastic
    /// arrival streams are unperturbed) and invalidates any partial
    /// segmented-suite progress on the core, exactly as a stochastic
    /// arrival would. Returns false when fault injection is disabled or
    /// the core already carries a latent fault.
    bool force_fault(CoreId core, FunctionalUnit unit, FaultKind kind);
    /// Adds `damage` of wear to each listed core (accelerated-aging
    /// stress); the continuous wear model continues from the raised level.
    void inject_wear(std::span<const CoreId> cores, double damage);

    /// Writes the platform-owned slice of the end-of-run metrics
    /// (state-residency fractions, power/energy, thermal, aging, faults,
    /// DVFS actuation counts).
    void finalize_into(RunMetrics& m, SimTime end);

    // ---- snapshot support ----
    /// Complete substrate state as one JSON object (capping controller,
    /// thermal field, wear, fault injector, energy accumulators). The
    /// platform owns no pending simulator events: its epochs are periodic
    /// and re-registered by the facade on restore.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    /// Fills power_w_: the current draw of each core from its state, V/F
    /// level and temperature. The power model is a pure function of those
    /// three inputs, so only a core whose inputs differ from its key in
    /// power_key_ is evaluated again; every other entry already holds the
    /// bits a fresh evaluation would give.
    void fill_power();

    /// The inputs a power_w_ entry was last evaluated at. The default key
    /// (level -1) matches no core, so a new or restored engine evaluates
    /// every core on its first fill.
    struct PowerKey {
        CoreState state = CoreState::Idle;
        int vf_level = -1;
        double temp_c = 0.0;
    };

    SystemContext& ctx_;
    PowerModel power_model_;
    PowerManager power_mgr_;
    ThermalModel thermal_;
    AgingTracker aging_;
    CriticalityEvaluator crit_eval_;
    std::optional<FaultInjector> faults_;

    // per-core epoch buffers, by core id (reused across epochs)
    std::vector<double> criticality_;  ///< last refresh_criticality()
    std::vector<double> power_w_;      ///< last fill_power()
    std::vector<PowerKey> power_key_;  ///< inputs behind each power_w_
    std::vector<double> accel_buf_;    ///< fault acceleration (wear epoch)

    // accumulators
    std::uint64_t state_samples_ = 0;
    std::uint64_t dark_samples_ = 0;
    std::uint64_t testing_samples_ = 0;
    std::uint64_t reserved_samples_ = 0;
    SimTime energy_clock_ = 0;
    double link_test_energy_j_ = 0.0;
    double peak_temp_c_ = 0.0;
};

}  // namespace mcs
