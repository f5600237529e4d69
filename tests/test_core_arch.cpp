#include "arch/core.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

class CoreTest : public ::testing::Test {
protected:
    CoreTest() : table_(build_vf_table(technology(TechNode::nm16))),
                 core_(7, 3, 1, &table_) {}

    std::vector<VfLevel> table_;
    Core core_;
};

TEST_F(CoreTest, BootsIdleAtMaxLevel) {
    EXPECT_EQ(core_.state(), CoreState::Idle);
    EXPECT_EQ(core_.vf_level(), static_cast<int>(table_.size()) - 1);
    EXPECT_DOUBLE_EQ(core_.freq_hz(), table_.back().freq_hz);
    EXPECT_DOUBLE_EQ(core_.voltage_v(), table_.back().voltage_v);
    EXPECT_EQ(core_.id(), 7u);
    EXPECT_EQ(core_.x(), 3);
    EXPECT_EQ(core_.y(), 1);
    EXPECT_FALSE(core_.reserved());
}

TEST_F(CoreTest, TaskLifecycleCounts) {
    core_.start_task(100);
    EXPECT_TRUE(core_.is_busy());
    core_.finish_task(100 + kMillisecond);
    EXPECT_TRUE(core_.is_idle());
    EXPECT_EQ(core_.tasks_executed(), 1u);
    // 1 ms at 2.5 GHz = 2.5M cycles.
    EXPECT_EQ(core_.busy_cycles_since_test(), 2'500'000u);
    EXPECT_EQ(core_.total_busy_cycles(), 2'500'000u);
    EXPECT_EQ(core_.total_busy_time(), kMillisecond);
}

TEST_F(CoreTest, BusyCyclesExactAcrossVfChange) {
    core_.start_task(0);
    // 1 ms at top level f (2.5 GHz).
    core_.set_vf_level(kMillisecond, 0);
    // 1 ms at bottom level f (0.2 GHz).
    core_.finish_task(2 * kMillisecond);
    const auto expected = cycles_in(kMillisecond, table_.back().freq_hz) +
                          cycles_in(kMillisecond, table_.front().freq_hz);
    EXPECT_EQ(core_.total_busy_cycles(), expected);
}

TEST_F(CoreTest, TestLifecycleResetsStress) {
    core_.start_task(0);
    core_.finish_task(kMillisecond);
    EXPECT_GT(core_.busy_cycles_since_test(), 0u);
    core_.start_test(2 * kMillisecond);
    EXPECT_TRUE(core_.is_testing());
    core_.finish_test(3 * kMillisecond, true);
    EXPECT_EQ(core_.busy_cycles_since_test(), 0u);
    EXPECT_EQ(core_.tests_completed(), 1u);
    EXPECT_EQ(core_.last_test_end(), 3 * kMillisecond);
    EXPECT_EQ(core_.total_test_time(), kMillisecond);
    // Total busy cycles survive the reset.
    EXPECT_GT(core_.total_busy_cycles(), 0u);
}

TEST_F(CoreTest, AbortedTestDoesNotResetStress) {
    core_.start_task(0);
    core_.finish_task(kMillisecond);
    const auto stress = core_.busy_cycles_since_test();
    core_.start_test(2 * kMillisecond);
    core_.finish_test(3 * kMillisecond, false);
    EXPECT_EQ(core_.busy_cycles_since_test(), stress);
    EXPECT_EQ(core_.tests_completed(), 0u);
    EXPECT_EQ(core_.tests_aborted(), 1u);
    EXPECT_EQ(core_.last_test_end(), 0u);
}

TEST_F(CoreTest, IllegalTransitionsThrow) {
    EXPECT_THROW(core_.finish_task(0), RequireError);
    EXPECT_THROW(core_.finish_test(0, true), RequireError);
    EXPECT_THROW(core_.wake(0), RequireError);
    core_.start_task(0);
    EXPECT_THROW(core_.start_task(1), RequireError);
    EXPECT_THROW(core_.start_test(1), RequireError);
    EXPECT_THROW(core_.power_gate(1), RequireError);
}

TEST_F(CoreTest, DarkLifecycle) {
    core_.power_gate(10);
    EXPECT_EQ(core_.state(), CoreState::Dark);
    EXPECT_FALSE(core_.is_available());
    EXPECT_THROW(core_.start_task(20), RequireError);
    core_.wake(30);
    EXPECT_TRUE(core_.is_idle());
    EXPECT_EQ(core_.last_state_change(), 30u);
}

TEST_F(CoreTest, ReservedCoreCannotBeGated) {
    core_.set_reserved(true);
    EXPECT_THROW(core_.power_gate(0), RequireError);
}

TEST_F(CoreTest, FaultyIsTerminalAndClearsReservation) {
    core_.set_reserved(true);
    core_.mark_faulty(5);
    EXPECT_EQ(core_.state(), CoreState::Faulty);
    EXPECT_FALSE(core_.reserved());
    EXPECT_FALSE(core_.is_available());
    EXPECT_THROW(core_.mark_faulty(6), RequireError);
    EXPECT_THROW(core_.start_task(6), RequireError);
}

TEST_F(CoreTest, BusyFraction) {
    core_.start_task(0);
    core_.finish_task(250);
    EXPECT_DOUBLE_EQ(core_.busy_fraction(1000), 0.25);
    // In-flight busy interval is included.
    core_.start_task(1000);
    EXPECT_DOUBLE_EQ(core_.busy_fraction(2000), (250.0 + 1000.0) / 2000.0);
}

TEST_F(CoreTest, BusyFractionAtBirthIsZero) {
    EXPECT_DOUBLE_EQ(core_.busy_fraction(0), 0.0);
}

TEST_F(CoreTest, CheckpointRejectsTimeTravel) {
    core_.checkpoint(100);
    EXPECT_THROW(core_.checkpoint(50), RequireError);
}

TEST_F(CoreTest, VfLevelRangeChecked) {
    EXPECT_THROW(core_.set_vf_level(0, -1), RequireError);
    EXPECT_THROW(core_.set_vf_level(0, static_cast<int>(table_.size())),
                 RequireError);
}

TEST_F(CoreTest, StateNames) {
    EXPECT_STREQ(to_string(CoreState::Idle), "Idle");
    EXPECT_STREQ(to_string(CoreState::Busy), "Busy");
    EXPECT_STREQ(to_string(CoreState::Testing), "Testing");
    EXPECT_STREQ(to_string(CoreState::Dark), "Dark");
    EXPECT_STREQ(to_string(CoreState::Faulty), "Faulty");
}

TEST(CoreCtor, RejectsMissingTable) {
    EXPECT_THROW(Core(0, 0, 0, nullptr), RequireError);
    std::vector<VfLevel> empty;
    EXPECT_THROW(Core(0, 0, 0, &empty), RequireError);
}

}  // namespace
}  // namespace mcs
