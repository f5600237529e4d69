#include "arch/core.hpp"

#include <string>

#include "util/require.hpp"

namespace mcs {

const char* to_string(CoreState state) {
    switch (state) {
        case CoreState::Idle: return "Idle";
        case CoreState::Busy: return "Busy";
        case CoreState::Testing: return "Testing";
        case CoreState::Dark: return "Dark";
        case CoreState::Faulty: return "Faulty";
    }
    return "?";
}

Core::Core(CoreId id, int x, int y, const std::vector<VfLevel>* vf_table)
    : id_(id), x_(x), y_(y), vf_table_(vf_table) {
    MCS_REQUIRE(vf_table_ != nullptr && !vf_table_->empty(),
                "core needs a non-empty VF table");
    // Boot at max V/F.
    s_.vf_level = static_cast<int>(vf_table_->size()) - 1;
}

double Core::freq_hz() const {
    return (*vf_table_)[static_cast<std::size_t>(vf_level())].freq_hz;
}

double Core::voltage_v() const {
    return (*vf_table_)[static_cast<std::size_t>(vf_level())].voltage_v;
}

void Core::checkpoint(SimTime now) {
    MCS_REQUIRE(now >= s_.last_checkpoint,
                "core checkpoint going backwards");
    const SimDuration span = now - s_.last_checkpoint;
    s_.last_checkpoint = now;
    if (span == 0) {
        return;
    }
    if (state() == CoreState::Busy) {
        const auto cycles = cycles_in(span, freq_hz());
        s_.busy_cycles_since_test += cycles;
        s_.total_busy_cycles += cycles;
        s_.total_busy_time += span;
    } else if (state() == CoreState::Testing) {
        s_.total_test_time += span;
    }
}

void Core::transition(SimTime now, CoreState to) {
    checkpoint(now);
    s_.state = to;
    s_.last_state_change = now;
}

void Core::start_task(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("start_task from state ") + to_string(state()));
    transition(now, CoreState::Busy);
}

void Core::finish_task(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Busy,
                std::string("finish_task from state ") + to_string(state()));
    transition(now, CoreState::Idle);
    ++s_.tasks_executed;
}

void Core::start_test(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("start_test from state ") + to_string(state()));
    transition(now, CoreState::Testing);
}

void Core::finish_test(SimTime now, bool completed) {
    MCS_REQUIRE(state() == CoreState::Testing,
                std::string("finish_test from state ") + to_string(state()));
    transition(now, CoreState::Idle);
    if (completed) {
        ++s_.tests_completed;
        s_.last_test_end = now;
        s_.busy_cycles_since_test = 0;
    } else {
        ++s_.tests_aborted;
    }
}

void Core::mark_faulty(SimTime now) {
    MCS_REQUIRE(state() != CoreState::Faulty, "core is already faulty");
    transition(now, CoreState::Faulty);
    s_.reserved = false;
}

void Core::power_gate(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("power_gate from state ") + to_string(state()));
    MCS_REQUIRE(!reserved(), "cannot power-gate a reserved core");
    transition(now, CoreState::Dark);
}

void Core::wake(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Dark,
                std::string("wake from state ") + to_string(state()));
    transition(now, CoreState::Idle);
}

void Core::set_vf_level(SimTime now, int level) {
    MCS_REQUIRE(level >= 0 &&
                    level < static_cast<int>(vf_table_->size()),
                "VF level out of range");
    checkpoint(now);  // integrate at the old frequency first
    s_.vf_level = level;
}

double Core::busy_fraction(SimTime now) const {
    if (now <= s_.birth) {
        return 0.0;
    }
    // Include the in-flight interval since the last checkpoint.
    SimDuration busy = s_.total_busy_time;
    if (state() == CoreState::Busy && now > s_.last_checkpoint) {
        busy += now - s_.last_checkpoint;
    }
    return static_cast<double>(busy) /
           static_cast<double>(now - s_.birth);
}

void Core::save_state(telemetry::JsonWriter& w) const {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(s_.state));
    w.value(static_cast<std::int64_t>(s_.vf_level));
    w.value(s_.reserved);
    w.value(s_.last_checkpoint);
    w.value(s_.busy_cycles_since_test);
    w.value(s_.total_busy_cycles);
    w.value(s_.total_busy_time);
    w.value(s_.total_test_time);
    w.value(s_.birth);
    w.value(s_.last_state_change);
    w.value(s_.last_test_end);
    w.value(s_.tests_completed);
    w.value(s_.tests_aborted);
    w.value(s_.tasks_executed);
    w.end_array();
}

void Core::load_state(const telemetry::JsonValue& record) {
    const auto& f = record.array();
    MCS_REQUIRE(f.size() == 14, "core state: malformed record");
    const std::uint64_t state = f[0].u64();
    MCS_REQUIRE(state <= static_cast<std::uint64_t>(CoreState::Faulty),
                "core state: state out of range");
    const std::int64_t level = f[1].i64();
    MCS_REQUIRE(level >= 0 &&
                    static_cast<std::uint64_t>(level) < vf_table_->size(),
                "core state: DVFS level out of range");
    s_.state = static_cast<CoreState>(state);
    s_.vf_level = static_cast<int>(level);
    s_.reserved = f[2].boolean();
    s_.last_checkpoint = f[3].u64();
    s_.busy_cycles_since_test = f[4].u64();
    s_.total_busy_cycles = f[5].u64();
    s_.total_busy_time = f[6].u64();
    s_.total_test_time = f[7].u64();
    s_.birth = f[8].u64();
    s_.last_state_change = f[9].u64();
    s_.last_test_end = f[10].u64();
    s_.tests_completed = f[11].u64();
    s_.tests_aborted = f[12].u64();
    s_.tasks_executed = f[13].u64();
}

}  // namespace mcs
