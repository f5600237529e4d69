#include "core/test_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/idle_predictor.hpp"
#include "core/platform_engine.hpp"
#include "core/schedulers.hpp"
#include "core/system.hpp"
#include "core/workload_engine.hpp"
#include "power/power_manager.hpp"
#include "power/power_model.hpp"
#include "telemetry/json.hpp"
#include "thermal/thermal_model.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

std::unique_ptr<TestScheduler> make_scheduler(const SystemConfig& cfg) {
    if (cfg.scheduler_factory) {
        auto scheduler = cfg.scheduler_factory();
        MCS_REQUIRE(scheduler != nullptr, "scheduler factory returned null");
        return scheduler;
    }
    switch (cfg.scheduler) {
        case SchedulerKind::PowerAware:
            return std::make_unique<PowerAwareTestScheduler>(cfg.power_aware);
        case SchedulerKind::Periodic:
            return std::make_unique<PeriodicTestScheduler>(
                cfg.periodic_test_period);
        case SchedulerKind::Greedy:
            return std::make_unique<GreedyTestScheduler>();
        case SchedulerKind::None:
            return std::make_unique<NullTestScheduler>();
        case SchedulerKind::DeadlineAware:
            return std::make_unique<DeadlineAwareTestScheduler>(
                cfg.periodic_test_period,
                cfg.power_aware.guard_band_fraction,
                cfg.power_aware.max_concurrent_tests);
    }
    MCS_REQUIRE(false, "unknown scheduler kind");
    return nullptr;
}

}  // namespace

TestEngine::TestEngine(SystemContext& ctx)
    : ctx_(ctx), scheduler_(make_scheduler(ctx.cfg)) {
    if (ctx_.cfg.enable_noc_testing) {
        link_tester_.emplace(ctx_.noc.link_count(), ctx_.cfg.noc_test,
                             ctx_.cfg.seed ^ 0xd1b54a32d192ed03ULL);
        last_link_test_.assign(ctx_.noc.link_count(), 0);
        link_test_active_.assign(ctx_.noc.link_count(), 0);
    }
    test_exec_.resize(ctx_.chip.core_count());
    test_progress_.assign(ctx_.chip.core_count(), 0);
    last_test_done_.assign(ctx_.chip.core_count(), 0);
    last_test_abort_.assign(ctx_.chip.core_count(), 0);
    ctx_.link_tester = link_tester_ ? &*link_tester_ : nullptr;
    ctx_.test = this;
}

void TestEngine::test_epoch() {
    const SimTime now = ctx_.sim.now();
    const std::vector<double>& crit =
        ctx_.platform->refresh_criticality(now);
    SchedulerContext sctx;
    sctx.now = now;
    sctx.tdp_w = ctx_.budget.tdp_w();
    sctx.power_slack_w = ctx_.power_mgr->headroom_w();
    sctx.tests_running = tests_running_;
    sctx.vf_table = &ctx_.chip.vf_table();
    // Candidates: the unreserved Idle or Dark cores in core-id order, minus
    // cores still inside the retry backoff of their last abort (t == 0
    // means never aborted).
    const std::span<const double> temps = ctx_.thermal->temps_c();
    const SimDuration backoff = ctx_.cfg.test_retry_backoff;
    for (const Core& c : ctx_.chip.cores()) {
        if (c.reserved() || (c.state() != CoreState::Idle &&
                             c.state() != CoreState::Dark)) {
            continue;
        }
        const CoreId id = c.id();
        const SimTime abort = last_test_abort_[id];
        if (abort != 0 && now - abort < backoff) {
            continue;
        }
        sctx.candidates.push_back(TestCandidate{
            id, crit[id], c.state() == CoreState::Dark,
            now - c.last_state_change(), temps[id],
            ctx_.idle_predictor->predict_remaining(id, now)});
    }
    sctx.test_power_w = [this](CoreId core, int level) {
        return test_power_increment_w(ctx_.chip.core(core), level);
    };
    sctx.test_duration = [this](int level) {
        return duration_for_cycles(
            ctx_.suite.total_cycles(),
            ctx_.chip.vf_table()[static_cast<std::size_t>(level)].freq_hz);
    };
    sctx.start_test = [this](CoreId core, int level) {
        start_test_session(core, level);
    };
    sctx.tracer = ctx_.tracer;
    scheduler_->epoch(sctx);
    if (link_tester_) {
        schedule_link_tests(now);
    }
}

double TestEngine::test_power_increment_w(const Core& c, int level) const {
    const double temp = ctx_.thermal->temp_c(c.id());
    const double now_w =
        ctx_.power_model->core_power_w(c.state(), c.vf_level(), temp);
    return std::max(0.0, ctx_.power_model->test_power_w(level, temp) - now_w);
}

void TestEngine::schedule_link_tests(SimTime now) {
    const NocTestParams& p = ctx_.cfg.noc_test;
    // Rank overdue links by how far past their target period they are.
    std::vector<std::pair<double, LinkId>> overdue;
    const std::size_t links = ctx_.noc.link_count();
    for (std::size_t l = 0; l < links; ++l) {
        if (link_test_active_[l]) {
            continue;
        }
        if (ctx_.noc.link_utilization(static_cast<LinkId>(l)) >
            p.max_test_utilization) {
            continue;  // busy link: testing would congest real traffic
        }
        const double crit =
            static_cast<double>(now - last_link_test_[l]) /
            static_cast<double>(p.test_period_target);
        if (crit >= 1.0) {
            overdue.push_back({crit, static_cast<LinkId>(l)});
        }
    }
    std::sort(overdue.begin(), overdue.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first) {
                      return a.first > b.first;
                  }
                  return a.second < b.second;
              });
    for (const auto& [crit, link] : overdue) {
        if (link_tests_running_ >= p.max_concurrent_tests) {
            break;
        }
        if (ctx_.power_mgr->headroom_w() < p.test_power_w) {
            break;  // link tests ride the same budget as core tests
        }
        ctx_.power_mgr->reserve_power(p.test_power_w);
        ctx_.noc.inject_link_load(link, p.test_bytes);
        link_test_active_[link] = 1;
        ++link_tests_running_;
        const SimDuration dur = std::max<SimDuration>(
            1, ctx_.noc.link_transfer_time(p.test_bytes));
        schedule_link_test_done(link, now + dur);
    }
}

void TestEngine::schedule_link_test_done(LinkId link, SimTime when) {
    ctx_.sim.schedule_at(
        when, [this, link] { on_link_test_complete(link); },
        EventRecord{"link_test_complete", link});
}

void TestEngine::on_link_test_complete(LinkId link) {
    const SimTime now = ctx_.sim.now();
    link_test_active_[link] = 0;
    --link_tests_running_;
    last_link_test_[link] = now;
    ++ctx_.metrics.link_tests_completed;
    if (auto detected = link_tester_->attempt_detection(link, now)) {
        ctx_.metrics.link_detection_latency_s.add(
            to_seconds(now - detected->injected));
    }
}

void TestEngine::start_test_session(CoreId core, int vf_level) {
    const SimTime now = ctx_.sim.now();
    Core& c = ctx_.chip.core(core);
    MCS_REQUIRE(!c.reserved(), "cannot test a reserved core");
    if (c.state() == CoreState::Dark) {
        ctx_.power_mgr->wake_core(now, core, ctx_.thermal->temp_c(core));
    }
    MCS_REQUIRE(c.is_idle(), "test target must be idle");
    // Charge the test's power increment (over the idle power the core was
    // already burning) to the power ledger: the amount the scheduler was
    // offered when it admitted the session.
    const double increment_w = test_power_increment_w(c, vf_level);
    c.set_vf_level(now, vf_level);
    c.start_test(now);
    ctx_.power_mgr->reserve_power(increment_w);
    ctx_.power_mgr->touch(now, core);
    TestExec& ex = test_exec_[core];
    MCS_REQUIRE(!ex.active, "test already running on core");
    ex.active = true;
    ex.vf_level = vf_level;
    ++tests_running_;
    ctx_.observers.test_session_begin(now, core, vf_level);
    const std::uint64_t cycles =
        ctx_.cfg.segmented_tests
            ? ctx_.suite.routines()[test_progress_[core]].cycles
            : ctx_.suite.total_cycles();
    const SimDuration dur =
        std::max<SimDuration>(1, duration_for_cycles(cycles, c.freq_hz()));
    schedule_session_step(core, now + dur);
}

void TestEngine::schedule_session_step(CoreId core, SimTime when) {
    // Segmentation is structural (cfg.segmented_tests is part of the
    // structural fingerprint), so a captured step and its restored copy
    // complete through the same path.
    test_exec_[core].completion = ctx_.sim.schedule_at(
        when,
        [this, core] {
            if (ctx_.cfg.segmented_tests) {
                on_routine_complete(core);
            } else {
                on_test_complete(core);
            }
        },
        EventRecord{"test_session_complete", core});
}

void TestEngine::on_routine_complete(CoreId core) {
    TestExec& ex = test_exec_[core];
    MCS_REQUIRE(ex.active, "routine completion for inactive core");
    if (++test_progress_[core] == ctx_.suite.routine_count()) {
        test_progress_[core] = 0;
        on_test_complete(core);
        return;
    }
    const auto& routine = ctx_.suite.routines()[test_progress_[core]];
    const SimDuration dur = std::max<SimDuration>(
        1, duration_for_cycles(routine.cycles,
                               ctx_.chip.core(core).freq_hz()));
    schedule_session_step(core, ctx_.sim.now() + dur);
}

void TestEngine::on_test_complete(CoreId core) {
    const SimTime now = ctx_.sim.now();
    TestExec& ex = test_exec_[core];
    MCS_REQUIRE(ex.active, "test completion for inactive core");
    ex.active = false;
    --tests_running_;
    Core& c = ctx_.chip.core(core);
    c.finish_test(now, /*completed=*/true);
    // Return to the frugal idle point; a task grant or the capping loop
    // decides the next operating level.
    c.set_vf_level(now, 0);
    ctx_.power_mgr->touch(now, core);
    ++ctx_.metrics.tests_completed;
    ctx_.observers.test_session_complete(now, core, ex.vf_level);
    // The histogram counts *completed* suites per level (aborted sessions
    // are tracked separately via tests_aborted).
    ++ctx_.metrics
          .tests_per_vf_level[static_cast<std::size_t>(ex.vf_level)];
    // Only closed test-to-test gaps enter the interval statistic (the
    // boot-to-first-test gap is a different quantity; the worst open gap
    // is reported separately as max_open_test_gap_s).
    if (last_test_done_[core] != 0) {
        ctx_.metrics.test_interval_s.add(
            to_seconds(now - last_test_done_[core]));
    }
    last_test_done_[core] = now;

    if (ctx_.faults != nullptr) {
        // Approximation: a segmented suite assembled across several
        // sessions rolls detection at the level of its final session.
        if (auto detected = ctx_.faults->attempt_detection(
                core, now, ctx_.suite, ex.vf_level,
                static_cast<int>(ctx_.chip.vf_level_count()))) {
            c.mark_faulty(now);
            ctx_.idle_predictor->notify_unavailable(core, now);
            const double latency_s = to_seconds(now - detected->injected);
            ctx_.metrics.detection_latency_s.add(latency_s);
            ctx_.metrics.detection_latency_samples.add(latency_s);
        }
    }
    ctx_.workload->try_map_pending();
}

void TestEngine::abort_test(CoreId core) {
    const SimTime now = ctx_.sim.now();
    TestExec& ex = test_exec_[core];
    MCS_REQUIRE(ex.active, "abort for inactive test");
    ctx_.sim.cancel(ex.completion);
    ex.active = false;
    --tests_running_;
    Core& c = ctx_.chip.core(core);
    c.finish_test(now, /*completed=*/false);
    c.set_vf_level(now, 0);  // frugal idle until reassigned
    last_test_abort_[core] = now;
    ++ctx_.metrics.tests_aborted;
    ctx_.observers.test_session_abort(now, core, ex.vf_level);
}

void TestEngine::wear_step(SimTime now, double dt_s) {
    if (link_tester_) {
        link_tester_->step(now, dt_s);
    }
}

// ------------------------------------------------------ snapshot support

void TestEngine::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.field("scheduler", scheduler_->name());
    w.key("scheduler_state");
    w.begin_object();
    scheduler_->save_state(w);
    w.end_object();
    w.key("exec");
    w.begin_array();
    for (const TestExec& ex : test_exec_) {
        w.begin_object();
        w.field("active", ex.active);
        w.field("vf", static_cast<std::int64_t>(ex.vf_level));
        w.end_object();
    }
    w.end_array();
    w.key("progress");
    w.begin_array();
    for (std::size_t p : test_progress_) {
        w.value(static_cast<std::uint64_t>(p));
    }
    w.end_array();
    w.key("last_done");
    w.begin_array();
    for (SimTime t : last_test_done_) {
        w.value(t);
    }
    w.end_array();
    w.key("last_abort");
    w.begin_array();
    for (SimTime t : last_test_abort_) {
        w.value(t);
    }
    w.end_array();
    w.field("tests_running", static_cast<std::int64_t>(tests_running_));
    if (link_tester_) {
        w.key("link");
        w.begin_object();
        w.key("last_test");
        w.begin_array();
        for (SimTime t : last_link_test_) {
            w.value(t);
        }
        w.end_array();
        w.key("active");
        w.begin_array();
        for (std::uint8_t a : link_test_active_) {
            w.value(a != 0);
        }
        w.end_array();
        w.field("running", static_cast<std::int64_t>(link_tests_running_));
        link_tester_->save_state(w);
        w.end_object();
    }
    w.end_object();
}

void TestEngine::load_state(const telemetry::JsonValue& doc) {
    // Scheduler state only transfers between identical policies; a relaxed
    // restore under a different policy starts that policy fresh.
    if (doc.at("scheduler").string() == scheduler_->name()) {
        scheduler_->load_state(doc.at("scheduler_state"));
    }
    const auto& exec = doc.at("exec").array();
    MCS_REQUIRE(exec.size() == test_exec_.size(),
                "snapshot test engine: core count mismatch");
    int active_sessions = 0;
    for (std::size_t c = 0; c < exec.size(); ++c) {
        TestExec& ex = test_exec_[c];
        ex.active = exec[c].at("active").boolean();
        const std::int64_t vf = exec[c].at("vf").i64();
        MCS_REQUIRE(vf >= 0 && static_cast<std::uint64_t>(vf) <
                                   ctx_.chip.vf_level_count(),
                    "snapshot test engine: session V/F level out of range");
        ex.vf_level = static_cast<int>(vf);
        ex.completion = EventId{};  // re-created from manifest
        active_sessions += ex.active ? 1 : 0;
    }
    const std::vector<std::uint64_t> progress = doc.at("progress").u64s();
    MCS_REQUIRE(progress.size() == test_progress_.size(),
                "snapshot test engine: progress size mismatch");
    for (std::size_t c = 0; c < progress.size(); ++c) {
        MCS_REQUIRE(progress[c] < ctx_.suite.routine_count(),
                    "snapshot test engine: suite progress out of range");
        test_progress_[c] = static_cast<std::size_t>(progress[c]);
    }
    std::vector<SimTime> done = doc.at("last_done").u64s();
    std::vector<SimTime> abort = doc.at("last_abort").u64s();
    MCS_REQUIRE(done.size() == last_test_done_.size() &&
                    abort.size() == last_test_abort_.size(),
                "snapshot test engine: stamp size mismatch");
    last_test_done_ = std::move(done);
    last_test_abort_ = std::move(abort);
    MCS_REQUIRE(doc.at("tests_running").i64() == active_sessions,
                "snapshot test engine: tests_running does not match the "
                "active sessions");
    tests_running_ = active_sessions;
    if (link_tester_) {
        const telemetry::JsonValue& link = doc.at("link");
        std::vector<SimTime> last = link.at("last_test").u64s();
        const std::vector<bool> active = link.at("active").booleans();
        MCS_REQUIRE(last.size() == last_link_test_.size() &&
                        active.size() == link_test_active_.size(),
                    "snapshot test engine: link count mismatch");
        last_link_test_ = std::move(last);
        int active_links = 0;
        for (std::size_t l = 0; l < active.size(); ++l) {
            link_test_active_[l] = active[l] ? 1 : 0;
            active_links += active[l] ? 1 : 0;
        }
        MCS_REQUIRE(link.at("running").i64() == active_links,
                    "snapshot test engine: link running count does not "
                    "match the active links");
        link_tests_running_ = active_links;
        link_tester_->load_state(link);
    }
}

void TestEngine::schedule_restored_session(std::uint64_t core,
                                           SimTime when) {
    MCS_REQUIRE(core < test_exec_.size(),
                "snapshot manifest: test core out of range");
    const TestExec& ex = test_exec_[core];
    MCS_REQUIRE(ex.active, "snapshot manifest: session on inactive core");
    MCS_REQUIRE(!ex.completion.valid(),
                "snapshot manifest: duplicate session for core");
    schedule_session_step(static_cast<CoreId>(core), when);
}

void TestEngine::schedule_restored_link_test(std::uint64_t link,
                                             SimTime when) {
    MCS_REQUIRE(link < link_test_active_.size(),
                "snapshot manifest: link out of range");
    MCS_REQUIRE(link_test_active_[link] != 0,
                "snapshot manifest: link test on inactive link");
    schedule_link_test_done(static_cast<LinkId>(link), when);
}

void TestEngine::check_restored_events(
    std::span<const PendingRecord> pending) const {
    for (const TestExec& ex : test_exec_) {
        MCS_REQUIRE(!ex.active || ex.completion.valid(),
                    "snapshot manifest: a running test session has no "
                    "completion");
    }
    // Each link test entry is unique and on an active link, so equal counts
    // mean every active link has its completion.
    const auto link_tests = std::count_if(
        pending.begin(), pending.end(), [](const PendingRecord& p) {
            return p.record.is("link_test_complete");
        });
    MCS_REQUIRE(link_tests == link_tests_running_,
                "snapshot manifest: a running link test has no completion");
}

void TestEngine::finalize_into(RunMetrics& m, SimTime end) {
    const double secs = to_seconds(end);
    std::size_t untested = 0;
    double max_open_gap = 0.0;
    for (const Core& c : ctx_.chip.cores()) {
        if (c.state() == CoreState::Faulty) {
            continue;  // decommissioned: no longer a test target
        }
        if (c.tests_completed() == 0) {
            ++untested;
        }
        max_open_gap = std::max(
            max_open_gap, to_seconds(end - last_test_done_[c.id()]));
    }
    m.untested_core_fraction = static_cast<double>(untested) /
                               static_cast<double>(ctx_.chip.core_count());
    m.max_open_test_gap_s = max_open_gap;
    m.tests_per_core_per_s = static_cast<double>(m.tests_completed) /
                             static_cast<double>(ctx_.chip.core_count()) /
                             secs;

    if (link_tester_) {
        m.link_faults_injected = link_tester_->injected_count();
        m.link_faults_detected = link_tester_->detected_count();
        m.link_test_escapes = link_tester_->escaped_tests();
        m.corrupted_messages = link_tester_->corrupted_messages();
        double max_gap = 0.0;
        for (SimTime t : last_link_test_) {
            max_gap = std::max(max_gap, to_seconds(end - t));
        }
        m.max_open_link_test_gap_s = max_gap;
    }

    scheduler_->export_telemetry(ctx_.registry);
}

}  // namespace mcs
