#pragma once

#include <functional>
#include <span>
#include <vector>

#include "arch/chip.hpp"
#include "power/pid_controller.hpp"
#include "power/power_budget.hpp"
#include "power/power_model.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"

namespace mcs {

/// How the capping loop turns the power error into DVFS actions.
enum class CappingMode {
    Pid,       ///< PID + committed-power ledger (the ICCD'14 substrate)
    BangBang,  ///< naive baseline: all busy cores step down when over the
               ///< cap, all step up when under -- no ledger checks
};

struct PowerManagerParams {
    CappingMode mode = CappingMode::Pid;
    PidParams pid;
    /// The controller regulates to setpoint_fraction * TDP, leaving margin
    /// for actuation lag so dithering stays under the cap itself.
    double setpoint_fraction = 0.97;
    /// Normalized-error deadband inside which no DVFS action is taken.
    double deadband = 0.01;
    /// Boost steps are scaled by this factor relative to throttle steps
    /// (fast down, slow up).
    double boost_fraction = 0.5;
    /// Idle, unreserved cores are power-gated (Dark) after this long idle.
    SimDuration gate_delay = 2 * kMillisecond;
    bool enable_power_gating = true;
};

/// Dark-silicon dynamic power capping (the ICCD'14 substrate the paper
/// builds on), with a committed-power ledger for spike-free admission:
///
///  * every control epoch the caller's chip-power measurement is
///    regulated by a PID to setpoint_fraction * TDP by stepping the DVFS
///    level of a proportional share of busy cores (down when over, up --
///    more slowly -- when under);
///  * between epochs, task starts ask grant_task_level() for the highest
///    DVFS level whose power increment still fits under the setpoint, and
///    the test scheduler reserves admitted test power via
///    reserve_power() -- both against the same ledger, so concurrent
///    admissions cannot jointly overshoot;
///  * long-idle unreserved cores are power-gated, which is where the
///    dark-silicon fraction physically shows up.
class PowerManager {
public:
    /// All references must outlive the manager. The "power.*" counters
    /// are registered in `registry` and are the one record of the DVFS
    /// steps, gatings and actuations.
    PowerManager(Chip& chip, const PowerModel& model, PowerBudget& budget,
                 telemetry::MetricsRegistry& registry,
                 PowerManagerParams params = {});

    /// Observer invoked as (core, old_level, new_level) whenever the manager
    /// changes a busy core's DVFS level; the system uses it to reschedule
    /// task completions.
    void set_vf_change_listener(
        std::function<void(CoreId, int, int)> listener);

    /// Attaches the event tracer (non-owning; null = tracing off): DVFS
    /// transitions, capping actuations, and power gating are traced.
    void set_tracer(telemetry::Tracer* tracer);

    /// Optional QoS hook (ICCD'14: hard/soft/best-effort priorities):
    /// returns the priority of the work on a busy core (higher = more
    /// important). When set, throttling victimizes low-priority cores first
    /// and boosting favors high-priority ones. An actuating epoch calls it
    /// once per busy core.
    void set_priority_lookup(std::function<int(CoreId)> lookup);

    /// One control epoch: record the caller's chip-power measurement
    /// (cores plus uncore, e.g. NoC routers) against the budget, reset the
    /// ledger to it, run the PID, actuate DVFS, and apply power gating.
    /// `temps_c` is indexed by CoreId (may be empty) and prices boost
    /// steps.
    void control_epoch(SimTime now, double measured_power_w,
                       std::span<const double> temps_c);

    /// DVFS level for a task about to start on `core`: the highest level
    /// whose busy-power increment over the core's current idle power fits
    /// in the ledger headroom (level 0 is always granted -- workload
    /// admission is never blocked, only slowed). Charges the ledger.
    int grant_task_level(CoreId core, double temp_c);

    /// Headroom available to the test scheduler under the setpoint.
    double headroom_w() const;

    /// Charges admitted (test) power to the ledger until the next epoch.
    void reserve_power(double watts);

    /// Wakes a Dark core (used by the mapper / test scheduler): the core
    /// comes back at the lowest DVFS level, the idle-power increment over
    /// the gated residual is charged to the ledger (waking a batch of cores
    /// must not overshoot the cap), and the idle stamp is refreshed so the
    /// core is not immediately re-gated.
    void wake_core(SimTime now, CoreId id,
                   double temp_c = kDefaultWakeTemp);

    static constexpr double kDefaultWakeTemp = -1.0;  ///< "use leak ref"

    /// Marks activity on a core (mapping reservation, task, test) so power
    /// gating leaves it alone this epoch.
    void touch(SimTime now, CoreId id);

    /// Externally imposed DVFS transition (scenario directive): moves an
    /// Idle/Busy core to `level` through the same path the capping
    /// controller uses, so the transition is traced, busy tasks are
    /// rescheduled via the listener, and the next control epoch simply
    /// continues from the new operating point.
    void force_vf(SimTime now, CoreId id, int level);

    double setpoint_w() const;
    double measured_power_w() const noexcept { return measured_power_w_; }
    double committed_power_w() const noexcept { return committed_power_w_; }
    std::uint64_t throttle_steps() const noexcept {
        return throttle_.value();
    }
    std::uint64_t boost_steps() const noexcept { return boost_.value(); }
    std::uint64_t cores_gated() const noexcept { return gated_.value(); }

    // ---- snapshot support ----
    /// Complete mutable control state as one object, the PID's included
    /// (the tracer, the listeners, and the chip/model/budget/registry
    /// references are rebuilt by the owning system and stay out of the
    /// snapshot). The step and gating counts are written as "throttle",
    /// "boost" and "gated", and load_state restores the counters from
    /// them. load_state checks the per-core idle stamps against the core
    /// count.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);

private:
    void actuate(SimTime now, double signal, std::span<const double> temps_c);
    void bang_step(SimTime now, int direction);
    void apply_power_gating(SimTime now);
    void change_vf(SimTime now, Core& core, int new_level);

    Chip& chip_;
    const PowerModel& model_;
    PowerBudget& budget_;
    PowerManagerParams params_;
    PidController pid_;
    telemetry::Counter& throttle_;
    telemetry::Counter& boost_;
    telemetry::Counter& gated_;
    telemetry::Counter& actuations_;
    telemetry::Tracer* tracer_ = nullptr;
    std::function<void(CoreId, int, int)> vf_listener_;
    std::function<int(CoreId)> priority_lookup_;
    std::vector<SimTime> last_active_;
    SimTime last_epoch_ = 0;
    bool has_epoch_ = false;
    double measured_power_w_ = 0.0;
    double committed_power_w_ = 0.0;
    std::size_t rotate_ = 0;

    /// A busy core's place in the capping order, computed once per
    /// actuation: its priority and V/F level, and the fairness rotation
    /// (id + rotate_) % busy count.
    struct BusyCore {
        int priority = 0;
        int vf_level = 0;
        std::size_t rotated = 0;
        Core* core = nullptr;
    };
    std::vector<BusyCore> busy_;  ///< actuate() scratch, reused
};

}  // namespace mcs
