#include "sim/simulator.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

TEST(Simulator, StartsAtZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInOrderAndAdvancesClock) {
    Simulator sim;
    std::vector<SimTime> seen;
    sim.schedule_at(50, [&] { seen.push_back(sim.now()); });
    sim.schedule_at(10, [&] { seen.push_back(sim.now()); });
    sim.schedule_in(30, [&] { seen.push_back(sim.now()); });
    const auto ran = sim.advance_until(100);
    EXPECT_EQ(ran, 3u);
    EXPECT_EQ(seen, (std::vector<SimTime>{10, 30, 50}));
    EXPECT_EQ(sim.now(), 100u);  // clock parked at horizon
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
    Simulator sim;
    bool late = false;
    sim.schedule_at(200, [&] { late = true; });
    sim.advance_until(100);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.advance_until(300);
    EXPECT_TRUE(late);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
    Simulator sim;
    int chain = 0;
    std::function<void()> next = [&] {
        ++chain;
        if (chain < 5) {
            sim.schedule_in(10, next);
        }
    };
    sim.schedule_at(0, next);
    sim.advance_until(1000);
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, EventAtHorizonRuns) {
    Simulator sim;
    bool ran = false;
    sim.schedule_at(100, [&] { ran = true; });
    sim.advance_until(100);
    EXPECT_TRUE(ran);
}

TEST(Simulator, SchedulingIntoPastThrows) {
    Simulator sim;
    sim.schedule_at(10, [] {});
    sim.advance_until(50);
    EXPECT_THROW(sim.schedule_at(20, [] {}), RequireError);
}

TEST(Simulator, CancelWorks) {
    Simulator sim;
    bool fired = false;
    const EventId id = sim.schedule_at(10, [&] { fired = true; });
    EXPECT_TRUE(sim.is_pending(id));
    EXPECT_TRUE(sim.cancel(id));
    sim.advance_until(100);
    EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
    Simulator sim;
    std::vector<SimTime> fires;
    sim.every(100, [&](SimTime t) { fires.push_back(t); });
    sim.advance_until(550);
    EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300, 400, 500}));
}

TEST(Simulator, PeriodicWithExplicitPhase) {
    Simulator sim;
    std::vector<SimTime> fires;
    sim.every(100, 30, [&](SimTime t) { fires.push_back(t); });
    sim.advance_until(300);
    EXPECT_EQ(fires, (std::vector<SimTime>{30, 130, 230}));
}

TEST(Simulator, TwoPeriodicsInterleave) {
    Simulator sim;
    std::vector<int> order;
    sim.every(30, [&](SimTime) { order.push_back(3); });
    sim.every(20, [&](SimTime) { order.push_back(2); });
    sim.advance_until(60);
    // t=20:2, t=30:3, t=40:2, t=60:2 then 3 (2 scheduled first at equal t? no:
    // both fire at 60; the one whose event was scheduled earlier wins FIFO).
    EXPECT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 3);
}

TEST(Simulator, PeriodicValidation) {
    Simulator sim;
    EXPECT_THROW(sim.every(0, [](SimTime) {}), RequireError);
    sim.schedule_at(10, [] {});
    sim.advance_until(20);
    EXPECT_THROW(sim.every(10, 5, [](SimTime) {}), RequireError);
}

TEST(Simulator, StepExecutesSingleEvent) {
    Simulator sim;
    int count = 0;
    sim.schedule_at(5, [&] { ++count; });
    sim.schedule_at(10, [&] { ++count; });
    EXPECT_TRUE(sim.step(100));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), 5u);
    EXPECT_TRUE(sim.step(100));
    EXPECT_FALSE(sim.step(100));
    EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace mcs
