#pragma once

// TestEngine: online testing of cores and NoC links. Owns the test
// scheduler policy, the per-core session state (including segmented-suite
// resume positions and abort backoff stamps) and the link tester; builds
// the SchedulerContext each test epoch and executes the sessions the
// policy starts. The power substrate and workload are reached through
// SystemContext.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/snapshot.hpp"
#include "core/system_context.hpp"
#include "core/test_scheduler.hpp"
#include "noc/link_test.hpp"

namespace mcs {

class TestEngine {
public:
    /// Builds the scheduler policy (and the link tester, when NoC testing
    /// is on) from `ctx.cfg` and registers itself in `ctx`.
    explicit TestEngine(SystemContext& ctx);
    TestEngine(const TestEngine&) = delete;
    TestEngine& operator=(const TestEngine&) = delete;

    /// One test epoch: refresh criticality, assemble the SchedulerContext
    /// from one scan of the chip (unreserved idle/dark cores outside the
    /// abort backoff, in core-id order), run the policy, then schedule
    /// link tests on overdue idle links.
    void test_epoch();

    /// Starts an SBST session on `core` at `vf_level` (wakes a dark core,
    /// charges the test power increment to the ledger). In segmented mode
    /// the session resumes from the core's saved routine position.
    void start_test_session(CoreId core, int vf_level);

    /// Aborts the in-flight session on `core` (the mapper claimed it) and
    /// stamps the retry backoff. Segmented progress is preserved.
    void abort_test(CoreId core);

    /// Drops any saved segmented-suite progress on `core` (a fresh fault
    /// invalidates routines that ran on a then-healthy core).
    void invalidate_progress(CoreId core) { test_progress_[core] = 0; }

    /// Wear-epoch hook: advances link-fault arrivals (called by
    /// PlatformEngine after core fault arrivals, preserving stream order).
    void wear_step(SimTime now, double dt_s);

    // --- introspection (tests, examples, scenario scripting) ---
    int tests_running() const noexcept { return tests_running_; }
    int link_tests_running() const noexcept { return link_tests_running_; }
    bool test_active(CoreId core) const { return test_exec_[core].active; }
    /// Completed routines of the (possibly paused) segmented suite.
    std::size_t suite_progress(CoreId core) const {
        return test_progress_[core];
    }
    SimTime last_abort(CoreId core) const { return last_test_abort_[core]; }
    const TestScheduler& scheduler() const noexcept { return *scheduler_; }
    TestScheduler& scheduler() noexcept { return *scheduler_; }
    const LinkTester* link_tester() const noexcept {
        return link_tester_ ? &*link_tester_ : nullptr;
    }
    /// Always 0: candidates come from a plain scan. Kept only because
    /// perfbench's traced window reads it.
    std::uint64_t candidacy_patches() const noexcept { return 0; }

    /// Writes the test-owned slice of the end-of-run metrics (coverage
    /// gaps, per-core test rates, link-test results) and exports the
    /// scheduler's telemetry.
    void finalize_into(RunMetrics& m, SimTime end);

    // ---- snapshot support ----
    /// Complete engine state as one JSON object, including the scheduler
    /// policy's state (tagged with the policy name; only loaded back into
    /// a matching policy).
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);
    /// Manifest replay, with the records the live paths schedule with:
    /// "test_session_complete" (a = core; the routine or the full suite)
    /// and "link_test_complete" (a = link). Each id is the manifest's
    /// 64-bit value, checked before it narrows.
    void schedule_restored_session(std::uint64_t core, SimTime when);
    void schedule_restored_link_test(std::uint64_t link, SimTime when);
    /// After the replay, checks that every active session and link test
    /// has its completion among the `pending` records; else a
    /// `snapshot manifest:` RequireError.
    void check_restored_events(std::span<const PendingRecord> pending) const;

private:
    /// State of a test session running on a core. In segmented mode the
    /// suite position lives in test_progress_ (it persists across aborted
    /// sessions).
    struct TestExec {
        bool active = false;
        int vf_level = 0;
        EventId completion{};
    };

    /// Power a test at `level` adds to `c` over its current draw (never
    /// negative). The scheduler admits on it and start_test_session
    /// charges it, so the ledger holds what was admitted.
    double test_power_increment_w(const Core& c, int level) const;
    void schedule_link_tests(SimTime now);
    /// Schedules the end of the current step of the session on `core` at
    /// `when` (the next routine when segmented, else the whole suite), with
    /// its snapshot record. The start, each routine and the manifest replay
    /// share it.
    void schedule_session_step(CoreId core, SimTime when);
    /// Schedules the end of the test on `link` at `when`, with its snapshot
    /// record. The start and the manifest replay share it.
    void schedule_link_test_done(LinkId link, SimTime when);
    void on_link_test_complete(LinkId link);
    void on_routine_complete(CoreId core);
    void on_test_complete(CoreId core);

    SystemContext& ctx_;
    std::unique_ptr<TestScheduler> scheduler_;
    std::optional<LinkTester> link_tester_;
    std::vector<SimTime> last_link_test_;
    std::vector<std::uint8_t> link_test_active_;
    int link_tests_running_ = 0;

    std::vector<TestExec> test_exec_;
    /// Remembers per-core suite progress across aborted segmented sessions.
    std::vector<std::size_t> test_progress_;
    std::vector<SimTime> last_test_done_;
    std::vector<SimTime> last_test_abort_;
    int tests_running_ = 0;
};

}  // namespace mcs
