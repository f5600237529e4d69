#pragma once

#include <cstdint>
#include <vector>

#include "arch/technology.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"

namespace mcs {

using CoreId = std::uint32_t;
inline constexpr CoreId kInvalidCore = static_cast<CoreId>(-1);

/// Core execution states.
///
///   Idle    -- powered, clock-gated, ready for work or test
///   Busy    -- executing a workload task
///   Testing -- executing an SBST routine
///   Dark    -- power-gated by the power manager (dark silicon)
///   Faulty  -- permanently decommissioned after a detected fault
enum class CoreState { Idle, Busy, Testing, Dark, Faulty };

const char* to_string(CoreState state);

/// One processing core: a checked state machine plus time/cycle accounting.
///
/// The core integrates busy cycles at every state or DVFS transition
/// ("checkpointing"), so `busy_cycles_since_test()` is exact even when the
/// frequency changes mid-task. Higher layers (aging, test criticality) are
/// built on these counters.
class Core {
public:
    /// `vf_table` must outlive the core (it is owned by Chip).
    Core(CoreId id, int x, int y, const std::vector<VfLevel>* vf_table);

    CoreId id() const noexcept { return id_; }
    int x() const noexcept { return x_; }
    int y() const noexcept { return y_; }

    CoreState state() const noexcept { return s_.state; }
    bool is_idle() const noexcept { return state() == CoreState::Idle; }
    bool is_busy() const noexcept { return state() == CoreState::Busy; }
    bool is_testing() const noexcept {
        return state() == CoreState::Testing;
    }
    bool is_available() const noexcept {
        return state() != CoreState::Faulty && state() != CoreState::Dark;
    }

    int vf_level() const noexcept { return s_.vf_level; }
    std::size_t vf_level_count() const noexcept { return vf_table_->size(); }
    double freq_hz() const;
    double voltage_v() const;

    /// --- checked state transitions (all integrate accounting to `now`) ---
    void start_task(SimTime now);                    ///< Idle -> Busy
    void finish_task(SimTime now);                   ///< Busy -> Idle
    void start_test(SimTime now);                    ///< Idle -> Testing
    /// Testing -> Idle. `completed` distinguishes a finished test (resets
    /// the stress counters and stamps last_test_end) from an aborted one.
    void finish_test(SimTime now, bool completed);
    void mark_faulty(SimTime now);                   ///< any -> Faulty
    void power_gate(SimTime now);                    ///< Idle -> Dark
    void wake(SimTime now);                          ///< Dark -> Idle
    void set_vf_level(SimTime now, int level);

    /// Reservation by the runtime mapper: a reserved core belongs to a
    /// mapped application (it may still be Idle between its tasks).
    /// Orthogonal to the execution state.
    bool reserved() const noexcept { return s_.reserved; }
    void set_reserved(bool reserved) noexcept { s_.reserved = reserved; }

    /// --- stress / test accounting ---
    std::uint64_t busy_cycles_since_test() const noexcept {
        return s_.busy_cycles_since_test;
    }
    SimTime last_test_end() const noexcept { return s_.last_test_end; }
    std::uint64_t tests_completed() const noexcept {
        return s_.tests_completed;
    }
    std::uint64_t tests_aborted() const noexcept { return s_.tests_aborted; }
    std::uint64_t tasks_executed() const noexcept {
        return s_.tasks_executed;
    }

    std::uint64_t total_busy_cycles() const noexcept {
        return s_.total_busy_cycles;
    }
    SimDuration total_busy_time() const noexcept {
        return s_.total_busy_time;
    }
    SimDuration total_test_time() const noexcept {
        return s_.total_test_time;
    }

    /// Lifetime busy fraction in [0,1] up to `now`.
    double busy_fraction(SimTime now) const;

    /// Time of the most recent state transition (how long the core has been
    /// in its current state).
    SimTime last_state_change() const noexcept {
        return s_.last_state_change;
    }

    /// Integrates counters up to `now` without changing state. Exposed so
    /// periodic observers (aging, metrics) see up-to-date counters.
    void checkpoint(SimTime now);

    /// Checkpoint record: the core's mutable state as one 14-value array
    /// (identity and the VF table stay with the constructed core).
    /// load_state checks the state enum and the V/F level against the
    /// table.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& record);

private:
    /// Complete mutable state; the checked transitions are its only
    /// writers, apart from load_state.
    struct Fields {
        CoreState state = CoreState::Idle;
        int vf_level = 0;
        bool reserved = false;
        SimTime last_checkpoint = 0;
        std::uint64_t busy_cycles_since_test = 0;
        std::uint64_t total_busy_cycles = 0;
        SimDuration total_busy_time = 0;
        SimDuration total_test_time = 0;
        SimTime birth = 0;
        SimTime last_state_change = 0;
        SimTime last_test_end = 0;
        std::uint64_t tests_completed = 0;
        std::uint64_t tests_aborted = 0;
        std::uint64_t tasks_executed = 0;
    };

    void transition(SimTime now, CoreState to);

    CoreId id_;
    int x_;
    int y_;
    const std::vector<VfLevel>* vf_table_;
    Fields s_;
};

}  // namespace mcs
