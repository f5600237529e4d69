#include "core/schedulers.hpp"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/technology.hpp"
#include "core/system.hpp"
#include "scenario/scenario_runner.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "util/config.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

/// Harness: fabricates a SchedulerContext (with a session-duration model,
/// which the deadline policy needs for its laxity test) and records
/// start_test calls.
class Harness {
public:
    Harness() : table_(build_vf_table(technology(TechNode::nm16))) {}

    SchedulerContext make(SimTime now, double slack_w,
                          std::vector<TestCandidate> candidates,
                          double per_test_power_w = 1.0,
                          SimDuration session = 100 * kMillisecond) {
        SchedulerContext ctx;
        ctx.now = now;
        ctx.tdp_w = 30.0;
        ctx.power_slack_w = slack_w;
        ctx.tests_running = 0;
        ctx.vf_table = &table_;
        ctx.candidates = std::move(candidates);
        ctx.test_power_w = [this, per_test_power_w](CoreId, int level) {
            return per_test_power_w *
                   (0.5 + static_cast<double>(level) /
                              static_cast<double>(table_.size() - 1));
        };
        ctx.test_duration = [session](int) { return session; };
        ctx.start_test = [this](CoreId core, int level) {
            started_.push_back({core, level});
        };
        return ctx;
    }

    static TestCandidate idle(CoreId core) {
        return TestCandidate{core, 1.0, false, 1 * kSecond};
    }

    const std::vector<std::pair<CoreId, int>>& started() const {
        return started_;
    }
    void reset() { started_.clear(); }
    int top_level() const { return static_cast<int>(table_.size()) - 1; }
    double top_power(double per_test_power_w = 1.0) const {
        return per_test_power_w * 1.5;
    }

private:
    std::vector<VfLevel> table_;
    std::vector<std::pair<CoreId, int>> started_;
};

TEST(DeadlineScheduler, ServesEarliestDeadlineFirst) {
    Harness h;
    DeadlineAwareTestScheduler sched(1 * kSecond, 0.0);
    // First-seen deadlines stagger by core id: core c is due at
    // 1s + 1s*(c%16)/16. At now = 1s with a 100 ms session (200 ms laxity
    // margin) all four are urgent; 3.2 W of slack fits exactly two 1.5 W
    // sessions, taken in deadline order.
    auto ctx = h.make(1 * kSecond, 3.2,
                      {h.idle(3), h.idle(1), h.idle(2), h.idle(0)});
    sched.epoch(ctx);
    ASSERT_EQ(h.started().size(), 2u);
    EXPECT_EQ(h.started()[0].first, 0u);
    EXPECT_EQ(h.started()[1].first, 1u);
    EXPECT_EQ(h.started()[0].second, h.top_level());
    EXPECT_EQ(sched.admitted(), 2u);
    EXPECT_EQ(sched.rejected_power(), 2u);
    EXPECT_EQ(sched.deadline_misses(), 0u);
}

TEST(DeadlineScheduler, LaxityDefersNonUrgentCores) {
    Harness h;
    DeadlineAwareTestScheduler sched(1 * kSecond, 0.0);
    // At now = 0.5 s every first deadline is >= 1 s and the margin is only
    // 0.2 s: nothing is urgent, so nothing starts (and nothing is a power
    // rejection either -- the policy never even prices the candidates).
    auto ctx = h.make(500 * kMillisecond, 100.0,
                      {h.idle(0), h.idle(1), h.idle(2)});
    sched.epoch(ctx);
    EXPECT_TRUE(h.started().empty());
    EXPECT_EQ(sched.admitted(), 0u);
    EXPECT_EQ(sched.rejected_power(), 0u);
    EXPECT_EQ(sched.deadline_misses(), 0u);
}

TEST(DeadlineScheduler, NeverAdmitsPastTheGuardedSlack) {
    // Conformance sweep: across randomized slack / guard / power / fleet
    // combinations, total admitted power never exceeds slack minus guard.
    Rng rng(99);
    for (int trial = 0; trial < 500; ++trial) {
        Harness h;
        const double guard_fraction = rng.bernoulli(0.5) ? 0.1 : 0.0;
        DeadlineAwareTestScheduler sched(100 * kMillisecond, guard_fraction);
        const double slack = rng.uniform(0.0, 6.0);
        const double unit_power = rng.uniform(0.2, 2.0);
        std::vector<TestCandidate> cands;
        const std::size_t n = 1 + rng.index(10);
        for (std::size_t i = 0; i < n; ++i) {
            cands.push_back(Harness::idle(static_cast<CoreId>(i)));
        }
        // Far past every first deadline, so urgency never blocks admission.
        auto ctx = h.make(1 * kSecond, slack, std::move(cands), unit_power,
                          10 * kMillisecond);
        sched.epoch(ctx);
        double admitted_power = 0.0;
        for (const auto& [core, level] : h.started()) {
            EXPECT_EQ(level, h.top_level());
            admitted_power += ctx.test_power_w(core, level);
        }
        if (!h.started().empty()) {
            // Every admission cleared the guard, so in total the admitted
            // power fits under slack with the full guard band to spare.
            EXPECT_LE(admitted_power + guard_fraction * ctx.tdp_w,
                      slack + 1e-9)
                << "trial " << trial
                << ": admission violates the guard band";
        }
    }
}

TEST(DeadlineScheduler, RespectsMaxConcurrentTests) {
    Harness h;
    DeadlineAwareTestScheduler sched(1 * kSecond, 0.0,
                                     /*max_concurrent_tests=*/1);
    auto ctx = h.make(2 * kSecond, 100.0, {h.idle(0), h.idle(1)});
    sched.epoch(ctx);
    EXPECT_EQ(h.started().size(), 1u);

    h.reset();
    auto ctx2 = h.make(4 * kSecond, 100.0, {h.idle(0), h.idle(1)});
    ctx2.tests_running = 1;  // already at the cap
    sched.epoch(ctx2);
    EXPECT_TRUE(h.started().empty());
}

TEST(DeadlineScheduler, CountsOneMissPerSlippedPeriod) {
    Harness h;
    DeadlineAwareTestScheduler sched(100 * kMillisecond, 0.0);
    // Core 0's first deadline is 100 ms; showing up only at 350 ms means
    // the 100/200/300 ms deadlines all slipped: three misses, and the
    // cadence resumes on its original grid (next due 400 ms).
    auto ctx = h.make(350 * kMillisecond, 100.0, {h.idle(0)},
                      /*per_test_power_w=*/1.0, /*session=*/0);
    sched.epoch(ctx);
    EXPECT_TRUE(h.started().empty());  // 350 + 0 margin < 400: not urgent
    EXPECT_EQ(sched.deadline_misses(), 3u);

    auto ctx2 = h.make(400 * kMillisecond, 100.0, {h.idle(0)},
                       /*per_test_power_w=*/1.0, /*session=*/0);
    sched.epoch(ctx2);
    EXPECT_EQ(h.started().size(), 1u);
    EXPECT_EQ(sched.deadline_misses(), 3u);
}

TEST(DeadlineScheduler, FeasibleCadenceMeetsEveryDeadline) {
    // A core that is always offered with ample power meets a 200 ms test
    // cadence for 2 simulated seconds without a single miss.
    Harness h;
    DeadlineAwareTestScheduler sched(200 * kMillisecond, 0.0);
    for (SimTime now = 10 * kMillisecond; now <= 2 * kSecond;
         now += 10 * kMillisecond) {
        auto ctx = h.make(now, 100.0, {h.idle(0)},
                          /*per_test_power_w=*/1.0,
                          /*session=*/50 * kMillisecond);
        sched.epoch(ctx);
    }
    EXPECT_EQ(sched.deadline_misses(), 0u);
    // First due at 200 ms, then every 200 ms: 10 sessions by 2 s.
    EXPECT_EQ(sched.admitted(), 10u);
}

TEST(DeadlineScheduler, SaveLoadRoundTripsExactly) {
    Harness h;
    DeadlineAwareTestScheduler sched(1 * kSecond, 0.04);
    auto ctx = h.make(2 * kSecond, 2.0, {h.idle(0), h.idle(1), h.idle(2)});
    sched.epoch(ctx);

    const auto save = [](const DeadlineAwareTestScheduler& s) {
        std::ostringstream os;
        telemetry::JsonWriter w(os);
        w.begin_object();
        s.save_state(w);
        w.end_object();
        return os.str();
    };
    const std::string bytes = save(sched);

    DeadlineAwareTestScheduler fresh(1 * kSecond, 0.04);
    fresh.load_state(telemetry::parse_json(bytes));
    EXPECT_EQ(save(fresh), bytes);
    EXPECT_EQ(fresh.admitted(), sched.admitted());
    EXPECT_EQ(fresh.rejected_power(), sched.rejected_power());
    EXPECT_EQ(fresh.deadline_misses(), sched.deadline_misses());
}

TEST(DeadlineScheduler, SelectableThroughConfigAndExportsTelemetry) {
    // End to end through the key=value bridge: scheduler=deadline builds
    // the policy, the run completes, and the run report carries the
    // policy's counters.
    Config cfg;
    cfg.set("side", "4");
    cfg.set("scheduler", "deadline");
    cfg.set("test_period_ms", "100");
    cfg.set("seed", "3");
    auto sys = make_system(cfg);
    EXPECT_EQ(sys->scheduler().name(), "deadline");
    const RunMetrics metrics = sys->run(500 * kMillisecond);
    (void)metrics;
    std::ostringstream os;
    telemetry::write_run_report(metrics, &sys->registry(), os);
    const std::string report = os.str();
    EXPECT_NE(report.find("scheduler.tests_admitted"), std::string::npos);
    EXPECT_NE(report.find("scheduler.deadline_misses"), std::string::npos);
}

}  // namespace
}  // namespace mcs
