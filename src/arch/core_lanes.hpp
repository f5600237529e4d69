#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mcs {

enum class CoreState;

/// Struct-of-arrays storage for all mutable per-core state, owned by Chip.
/// Slot i belongs to the row-major core id i. `Core` is a thin indexed
/// view over these lanes (its checked transitions are the only writers of
/// the state-machine lanes), so the hot per-epoch loops -- thermal step,
/// wear integration, criticality, power fills, energy/trace folds, test
/// candidacy -- iterate flat contiguous arrays instead of chasing
/// per-object fields.
///
/// The epoch lanes at the bottom (temperature, damage, criticality, power)
/// are the same buffers the substrate models read and write: ThermalModel
/// and AgingTracker bind `temp_c` / `damage` as their backing storage, and
/// PlatformEngine fills `criticality` / `power_w` in place, so an epoch's
/// producer and its consumers share one allocation with no scratch copy.
///
/// Membership journal: every state or reservation change is recorded
/// (deduplicated) in `dirty_`. It has exactly one consumer -- the
/// TestEngine's patch-on-commit candidacy view (core/test_candidacy.hpp),
/// which drains it each test epoch. All writers run in serial event
/// context, so the journal needs no synchronization.
class CoreLanes {
public:
    CoreLanes() = default;
    /// Sizes every lane for `n` cores (boot values: Idle, unreserved,
    /// zeroed accounting; Core's constructor sets the boot V/F level).
    void reset(std::size_t n);

    std::size_t size() const noexcept { return state.size(); }

    // --- state machine + accounting lanes (written via Core only) ---
    std::vector<CoreState> state;
    std::vector<int> vf_level;
    std::vector<std::uint8_t> reserved;
    std::vector<SimTime> last_checkpoint;
    std::vector<std::uint64_t> busy_cycles_since_test;
    std::vector<std::uint64_t> total_busy_cycles;
    std::vector<SimDuration> total_busy_time;
    std::vector<SimDuration> total_test_time;
    std::vector<SimTime> birth;
    std::vector<SimTime> last_state_change;
    std::vector<SimTime> last_test_end;
    std::vector<std::uint64_t> tests_completed;
    std::vector<std::uint64_t> tests_aborted;
    std::vector<std::uint64_t> tasks_executed;

    // --- epoch lanes (substrate-owned values, lanes-owned storage) ---
    std::vector<double> temp_c;       ///< ThermalModel's live node temps
    std::vector<double> damage;       ///< AgingTracker's accumulated wear
    std::vector<double> criticality;  ///< last refresh_criticality() result
    std::vector<double> power_w;      ///< per-core power fill scratch

    // --- membership journal (single consumer; see class comment) ---
    void note_membership_change(std::uint32_t core) {
        if (!dirty_flag_[core]) {
            dirty_flag_[core] = 1;
            dirty_.push_back(core);
        }
    }
    const std::vector<std::uint32_t>& dirty() const noexcept {
        return dirty_;
    }
    void clear_dirty() noexcept {
        for (std::uint32_t core : dirty_) {
            dirty_flag_[core] = 0;
        }
        dirty_.clear();
    }

private:
    std::vector<std::uint8_t> dirty_flag_;
    std::vector<std::uint32_t> dirty_;
};

}  // namespace mcs
