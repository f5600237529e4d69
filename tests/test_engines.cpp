// Unit-level tests for the engine seams behind the ManycoreSystem façade:
// the per-round mapper view (one chip scan per mapping round, patched on
// each commit), the segmented-test abort/resume path under mapping
// contention, the abort backoff filter, set_priority_blind's interaction
// with the QoS admission queues, and the platform's memoized power buffer.
// These drive the engines directly -- no full-system run() needed except
// where app completion or the periodic epochs matter.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "core/config_bridge.hpp"
#include "core/platform_engine.hpp"
#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "core/system_observer.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "mapping/contiguous_mapper.hpp"
#include "sim/simulator.hpp"
#include "support/differential.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

// 2x2 chip, no generated arrivals (the rate is vanishingly small), no
// automatic test scheduling -- every event in these tests is injected.
SystemConfig small_cfg() {
    SystemConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.scheduler = SchedulerKind::None;
    cfg.mapper = MapperKind::FirstFit;
    cfg.workload.arrival_rate_hz = 1e-6;
    return cfg;
}

ApplicationSpec make_app(std::size_t tasks, std::uint64_t cycles,
                         QosClass qos = QosClass::BestEffort) {
    std::vector<Task> ts(tasks);
    for (Task& t : ts) {
        t.cycles = cycles;
    }
    return ApplicationSpec{0, 0, qos, 0, TaskGraph(std::move(ts))};
}

/// Records the order in which applications get mapped.
struct MapOrderObserver final : SystemObserver {
    std::vector<std::size_t> order;
    void on_app_mapped(SimTime, std::size_t app, CoreId,
                       std::size_t) override {
        order.push_back(app);
    }
    bool wants_trace_samples() const override { return false; }
};

TEST(WorkloadEngineSeams, OneChipScanPerMappingRound) {
    ManycoreSystem sys(small_cfg());
    WorkloadEngine& we = sys.workload_engine();

    // Round 1: an app the size of the chip maps immediately -- one scan.
    const std::size_t a0 = we.inject(make_app(4, 1'000'000));
    we.on_arrival(a0);
    EXPECT_TRUE(we.app_mapped(a0));
    EXPECT_EQ(we.chip_scans(), 1u);
    EXPECT_EQ(we.mapping_attempts(), 1u);

    // Rounds 2 and 3: chip is full, both apps stay queued (one failed
    // attempt each, one scan each).
    const std::size_t a1 = we.inject(make_app(2, 400'000));
    we.on_arrival(a1);
    const std::size_t a2 = we.inject(make_app(2, 400'000));
    we.on_arrival(a2);
    EXPECT_FALSE(we.app_mapped(a1));
    EXPECT_FALSE(we.app_mapped(a2));
    EXPECT_EQ(we.pending_total(), 2u);
    EXPECT_EQ(we.chip_scans(), 3u);
    EXPECT_EQ(we.mapping_attempts(), 3u);

    // a0 finishes during the run; its release round maps BOTH queued apps
    // off a single chip scan (the view is patched per commit, not
    // rebuilt). Their own completions find empty queues: no further scans.
    sys.run(50 * kMillisecond);
    EXPECT_TRUE(we.app_done(a0));
    EXPECT_TRUE(we.app_done(a1));
    EXPECT_TRUE(we.app_done(a2));
    EXPECT_EQ(we.chip_scans(), 4u);
    EXPECT_EQ(we.mapping_attempts(), 5u);

    // The cacheability invariants the refactor is about: every round that
    // reached the mapper cost exactly one scan, and multi-commit rounds
    // made attempts outnumber scans (pre-refactor: attempts == scans).
    EXPECT_EQ(we.chip_scans(), we.mapping_rounds());
    EXPECT_GT(we.mapping_attempts(), we.chip_scans());
}

// Differential for the per-round mapper view: a mapper installed through
// SystemConfig::mapper_factory compares every view it receives with a
// fresh scan of the chip, then places with the test-aware mapper. A call
// after a successful one within the same round (no new chip scan) sees
// the round's scan patched by the commits in between.
TEST(WorkloadEngineSeams, MapperViewMatchesFreshScan) {
    SystemConfig cfg;
    cfg.width = 6;
    cfg.height = 6;
    cfg.seed = 4242;
    const double capacity = 36.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.9, cfg.workload.graphs, capacity);

    struct ViewProbe {
        ManycoreSystem* sys = nullptr;
        ContiguousMapper inner = ContiguousMapper::test_aware();
        std::size_t calls = 0;
        std::size_t mismatches = 0;
        std::size_t patched = 0;    ///< calls on a commit-patched view
        std::size_t testing = 0;    ///< calls with cores under test
        std::uint64_t last_scans = 0;
        bool last_placed = false;

        void check(const PlatformView& view) {
            ManycoreSystem& s = *sys;
            const SimTime now = s.simulator().now();
            const std::size_t n = s.chip().core_count();
            const std::vector<double> crit =
                CriticalityEvaluator(s.config().criticality)
                    .evaluate_chip(s.chip(), now, s.aging().damage_all());
            ThermalModel& thermal = s.platform_engine().thermal();
            bool same = view.width == s.config().width &&
                        view.height == s.config().height &&
                        view.allocatable.size() == n &&
                        view.testing.size() == n &&
                        view.utilization.size() == n &&
                        view.criticality.size() == n &&
                        view.temperature_c.size() == n;
            for (CoreId i = 0; same && i < n; ++i) {
                const Core& c = s.chip().core(i);
                const bool free = c.state() == CoreState::Idle ||
                                  c.state() == CoreState::Dark ||
                                  (c.is_testing() &&
                                   s.config().abort_tests_for_mapping);
                same = (view.allocatable[i] != 0) == (free && !c.reserved()) &&
                       (view.testing[i] != 0) == c.is_testing() &&
                       view.utilization[i] == c.busy_fraction(now) &&
                       view.criticality[i] == crit[i] &&
                       view.temperature_c[i] == thermal.temp_c(i);
            }
            const std::uint64_t scans = s.workload_engine().chip_scans();
            ++calls;
            mismatches += same ? 0 : 1;
            patched += scans == last_scans && last_placed ? 1 : 0;
            testing += std::any_of(view.testing.begin(), view.testing.end(),
                                   [](std::uint8_t t) { return t != 0; })
                           ? 1
                           : 0;
            last_scans = scans;
        }
    };
    auto probe = std::make_shared<ViewProbe>();
    cfg.mapper_factory = [probe]() {
        struct Fwd final : Mapper {
            std::shared_ptr<ViewProbe> probe;
            explicit Fwd(std::shared_ptr<ViewProbe> p) : probe(std::move(p)) {}
            std::optional<MappingResult> map(const MapRequest& request,
                                             const PlatformView& view,
                                             Rng& rng) override {
                probe->check(view);
                auto result = probe->inner.map(request, view, rng);
                probe->last_placed = result.has_value();
                return result;
            }
            std::string_view name() const override { return "view-probe"; }
        };
        return std::unique_ptr<Mapper>(new Fwd(probe));
    };
    ManycoreSystem sys(cfg);
    probe->sys = &sys;
    sys.run(2 * kSecond);

    EXPECT_GT(probe->calls, 1000u);
    EXPECT_EQ(probe->mismatches, 0u);
    EXPECT_GT(probe->patched, 100u);
    EXPECT_GT(probe->testing, 100u);
    EXPECT_EQ(sys.workload_engine().chip_scans(),
              sys.workload_engine().mapping_rounds());
    EXPECT_EQ(sys.workload_engine().mapping_attempts(), probe->calls);
}

TEST(TestEngineSeams, SegmentedAbortResumeAcrossMappingContention) {
    SystemConfig cfg = small_cfg();
    cfg.segmented_tests = true;
    ManycoreSystem sys(cfg);
    TestEngine& te = sys.test_engine();
    WorkloadEngine& we = sys.workload_engine();
    Simulator& sim = sys.simulator();
    const auto routines = sys.suite().routines();
    ASSERT_GT(routines.size(), 2u);

    // Start a segmented session and let exactly one routine finish.
    te.start_test_session(0, 0);
    EXPECT_TRUE(te.test_active(0));
    EXPECT_EQ(te.suite_progress(0), 0u);
    const double f0 = sys.chip().vf_table()[0].freq_hz;
    sim.advance_until(duration_for_cycles(routines[0].cycles, f0) + 1);
    EXPECT_TRUE(te.test_active(0));
    EXPECT_EQ(te.suite_progress(0), 1u);

    // Mapping contention: a chip-sized app claims the testing core. The
    // session aborts but the resume point survives.
    const std::size_t a0 = we.inject(make_app(4, 1'000'000));
    we.on_arrival(a0);
    EXPECT_TRUE(we.app_mapped(a0));
    EXPECT_FALSE(te.test_active(0));
    EXPECT_EQ(te.suite_progress(0), 1u);
    EXPECT_EQ(te.last_abort(0), sim.now());

    // Drain the app, then restart the session: it must finish after only
    // the REMAINING routines' cycles -- a restarted-from-scratch suite
    // could not complete before routine 0's cycles have elapsed again.
    sim.advance_until(sim.now() + 20 * kMillisecond);
    ASSERT_TRUE(we.app_done(a0));
    te.start_test_session(0, 0);
    EXPECT_EQ(te.suite_progress(0), 1u);
    const SimTime resumed_at = sim.now();
    SimDuration remaining = 0;
    for (std::size_t r = 1; r < routines.size(); ++r) {
        remaining += duration_for_cycles(routines[r].cycles, f0) + 1;
    }
    sim.advance_until(resumed_at + remaining);
    EXPECT_FALSE(te.test_active(0));   // completed: resumed, not restarted
    EXPECT_EQ(te.suite_progress(0), 0u);  // wrapped for the next suite
}

TEST(TestEngineSeams, InvalidateProgressDropsResumePoint) {
    SystemConfig cfg = small_cfg();
    cfg.segmented_tests = true;
    ManycoreSystem sys(cfg);
    TestEngine& te = sys.test_engine();
    Simulator& sim = sys.simulator();

    te.start_test_session(1, 0);
    const double f0 = sys.chip().vf_table()[0].freq_hz;
    sim.advance_until(
        duration_for_cycles(sys.suite().routines()[0].cycles, f0) + 1);
    te.abort_test(1);
    EXPECT_EQ(te.suite_progress(1), 1u);

    // A fresh fault on the core voids routines run while it was healthy.
    te.invalidate_progress(1);
    EXPECT_EQ(te.suite_progress(1), 0u);
}

TEST(TestEngineSeams, AbortBackoffFiltersCandidates) {
    SystemConfig cfg = small_cfg();
    // Records the candidate set each epoch; shared_ptr so the test keeps a
    // handle while the engine owns a forwarding wrapper.
    struct ProbeScheduler final : TestScheduler {
        std::vector<CoreId> seen;
        void epoch(SchedulerContext& sctx) override {
            seen.clear();
            for (const TestCandidate& c : sctx.candidates) {
                seen.push_back(c.core);
            }
        }
        std::string_view name() const override { return "probe"; }
    };
    auto probe = std::make_shared<ProbeScheduler>();
    cfg.scheduler_factory = [probe]() {
        struct Fwd final : TestScheduler {
            std::shared_ptr<ProbeScheduler> inner;
            explicit Fwd(std::shared_ptr<ProbeScheduler> p)
                : inner(std::move(p)) {}
            void epoch(SchedulerContext& sctx) override {
                inner->epoch(sctx);
            }
            std::string_view name() const override { return inner->name(); }
        };
        return std::unique_ptr<TestScheduler>(new Fwd(probe));
    };
    ManycoreSystem sys(cfg);
    TestEngine& te = sys.test_engine();
    Simulator& sim = sys.simulator();

    // Abort a session at t > 0 (t == 0 is the "never aborted" sentinel).
    sim.schedule_at(1 * kMillisecond, [] {});
    sim.advance_until(1 * kMillisecond);
    te.start_test_session(0, 0);
    te.abort_test(0);
    ASSERT_EQ(te.last_abort(0), sim.now());

    // Within the backoff window core 0 is withheld from the scheduler.
    te.test_epoch();
    EXPECT_EQ(probe->seen, (std::vector<CoreId>{1, 2, 3}));

    // Past the window it is offered again.
    const SimTime past = 1 * kMillisecond + sys.config().test_retry_backoff;
    sim.schedule_at(past + 1, [] {});
    sim.advance_until(past + 1);
    te.test_epoch();
    EXPECT_EQ(probe->seen, (std::vector<CoreId>{0, 1, 2, 3}));
}

// Differential for the test candidates: under a real workload plus
// randomized test-session churn (starts and aborts driven from inside the
// scheduler hook), the candidate set offered to the policy every epoch
// must equal an independent whole-chip predicate scan, in core-id order.
TEST(TestEngineSeams, CandidatesMatchFreshScan) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.mapper = MapperKind::FirstFit;
    cfg.seed = 1234;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.6, cfg.workload.graphs, capacity);

    struct ChurnProbe final : TestScheduler {
        ManycoreSystem* sys = nullptr;
        Rng rng{9001};
        std::size_t checks = 0;
        std::size_t mismatches = 0;
        std::size_t started = 0;
        std::size_t aborted = 0;
        CoreId last_started = kInvalidCore;

        void epoch(SchedulerContext& sctx) override {
            TestEngine& te = sys->test_engine();
            // Fresh whole-chip scan of the published predicate.
            std::vector<CoreId> fresh;
            const SimDuration backoff = sys->config().test_retry_backoff;
            const CoreId n = static_cast<CoreId>(sys->chip().core_count());
            for (CoreId i = 0; i < n; ++i) {
                const Core& c = sys->chip().core(i);
                if (c.reserved()) continue;
                if (c.state() != CoreState::Idle &&
                    c.state() != CoreState::Dark) {
                    continue;
                }
                const SimTime ab = te.last_abort(i);
                if (ab != 0 && sctx.now - ab < backoff) continue;
                fresh.push_back(i);
            }
            std::vector<CoreId> offered;
            for (const TestCandidate& c : sctx.candidates) {
                offered.push_back(c.core);
            }
            ++checks;
            if (offered != fresh) {
                ++mismatches;
            }
            // Randomized churn: sometimes abort the in-flight session,
            // sometimes start one on a random candidate.
            if (last_started != kInvalidCore &&
                te.test_active(last_started) && rng.uniform() < 0.5) {
                te.abort_test(last_started);
                ++aborted;
                last_started = kInvalidCore;
            }
            if (!sctx.candidates.empty() && rng.uniform() < 0.7) {
                const TestCandidate& pick =
                    sctx.candidates[rng.index(sctx.candidates.size())];
                if (!te.test_active(pick.core)) {
                    sctx.start_test(pick.core, 0);
                    ++started;
                    last_started = pick.core;
                }
            }
        }
        std::string_view name() const override { return "churn-probe"; }
    };
    auto probe = std::make_shared<ChurnProbe>();
    cfg.scheduler_factory = [probe]() {
        struct Fwd final : TestScheduler {
            std::shared_ptr<ChurnProbe> inner;
            explicit Fwd(std::shared_ptr<ChurnProbe> p)
                : inner(std::move(p)) {}
            void epoch(SchedulerContext& sctx) override {
                inner->epoch(sctx);
            }
            std::string_view name() const override { return inner->name(); }
        };
        return std::unique_ptr<TestScheduler>(new Fwd(probe));
    };
    ManycoreSystem sys(cfg);
    probe->sys = &sys;
    sys.run(400 * kMillisecond);

    EXPECT_GT(probe->checks, 10u);
    EXPECT_EQ(probe->mismatches, 0u);
    EXPECT_GT(probe->started, 0u);
    EXPECT_GT(probe->aborted, 0u);  // abort backoff path exercised
}

TEST(WorkloadEngineSeams, QosQueuesServeHardRealTimeFirst) {
    ManycoreSystem sys(small_cfg());
    WorkloadEngine& we = sys.workload_engine();
    MapOrderObserver order;
    sys.add_observer(&order);

    const std::size_t blocker = we.inject(make_app(4, 2'000'000));
    we.on_arrival(blocker);
    const std::size_t be = we.inject(make_app(4, 400'000));
    we.on_arrival(be);
    const std::size_t hr =
        we.inject(make_app(4, 400'000, QosClass::HardRealTime));
    we.on_arrival(hr);

    // Separate class queues: best-effort and hard-RT each hold one app.
    EXPECT_EQ(we.pending_in_class(0), 1u);
    EXPECT_EQ(we.pending_in_class(2), 1u);

    sys.run(50 * kMillisecond);
    // Hard-RT jumped the earlier best-effort arrival at the release round.
    EXPECT_EQ(order.order,
              (std::vector<std::size_t>{blocker, hr, be}));
    EXPECT_EQ(we.priority_of(0), 0);  // idle core carries no priority
}

TEST(WorkloadEngineSeams, PriorityBlindMergesQosQueues) {
    ManycoreSystem sys(small_cfg());
    sys.set_priority_blind(true);
    WorkloadEngine& we = sys.workload_engine();
    MapOrderObserver order;
    sys.add_observer(&order);

    const std::size_t blocker = we.inject(make_app(4, 2'000'000));
    we.on_arrival(blocker);
    const std::size_t be = we.inject(make_app(4, 400'000));
    we.on_arrival(be);
    const std::size_t hr =
        we.inject(make_app(4, 400'000, QosClass::HardRealTime));
    we.on_arrival(hr);

    // Blind admission funnels every class into queue 0, FIFO.
    EXPECT_EQ(we.pending_in_class(0), 2u);
    EXPECT_EQ(we.pending_in_class(2), 0u);

    sys.run(50 * kMillisecond);
    // Arrival order wins: the earlier best-effort app maps first.
    EXPECT_EQ(order.order,
              (std::vector<std::size_t>{blocker, be, hr}));
}

// Differential for the power memo: PlatformEngine evaluates a core's power
// again only when its state, V/F level or temperature changed. With a trace
// sample on every power epoch, each sample's total must equal, bit for bit,
// a fresh evaluation of the whole chip (summed in core order from 0.0, as
// the sample is) plus the NoC term. The run throttles and boosts, gates and
// wakes cores, aborts tests and marks cores faulty (the greedy scheduler
// starts sessions despite the tight budget); the check runs again after a
// mid-run restore, whose engine starts with no memo.
TEST(PlatformEngineSeams, PowerBufferMatchesFreshEvaluation) {
    const char* const args[] = {
        "side=10",           "occupancy=0.9",     "tdp_scale=0.7",
        "hard_rt_share=0.3", "soft_rt_share=0.3", "scheduler=greedy",
        "faults=true",       "fault_rate=20",     "abort_tests=true",
        "seed=21"};
    SystemConfig cfg = system_config_from(Config::from_args(args));
    cfg.trace_epoch = cfg.power_epoch;

    struct FreshPowerCheck final : SystemObserver {
        ManycoreSystem& sys;
        PowerModel model;
        std::size_t samples = 0;
        std::size_t mismatches = 0;
        std::size_t faulty_samples = 0;

        // The platform's model: the same technology and V/F table, and the
        // test activity of the SBST suite actually executed.
        static ActivityFactors activity_of(const ManycoreSystem& s) {
            ActivityFactors activity = s.config().activity;
            activity.test = s.suite().mean_activity();
            return activity;
        }
        explicit FreshPowerCheck(ManycoreSystem& s)
            : sys(s),
              model(s.chip().tech(), s.chip().vf_table(), activity_of(s)) {}

        void on_trace_sample(const TraceSample& sample) override {
            PlatformEngine& platform = sys.platform_engine();
            const double fresh =
                model.chip_power_w(sys.chip(), platform.thermal().temps_c()) +
                platform.noc_power_w();
            const std::vector<Core>& cores = sys.chip().cores();
            ++samples;
            mismatches += std::bit_cast<std::uint64_t>(sample.total_power_w) ==
                                  std::bit_cast<std::uint64_t>(fresh)
                              ? 0
                              : 1;
            faulty_samples += std::any_of(cores.begin(), cores.end(),
                                          [](const Core& c) {
                                              return c.state() ==
                                                     CoreState::Faulty;
                                          })
                                  ? 1
                                  : 0;
        }
    };

    const SimDuration horizon = 400 * kMillisecond;
    const testsupport::TempFile snapshot("power_memo");
    ManycoreSystem sys(cfg);
    FreshPowerCheck check(sys);
    sys.add_observer(&check);
    sys.checkpoint_at(horizon / 2, snapshot.path());
    const RunMetrics m = sys.run(horizon);
    EXPECT_EQ(check.samples, horizon / cfg.power_epoch);
    EXPECT_EQ(check.mismatches, 0u);
    EXPECT_GT(check.faulty_samples, 0u);
    EXPECT_GT(m.dvfs_throttle_steps, 0u);
    EXPECT_GT(m.dvfs_boost_steps, 0u);
    EXPECT_GT(m.tests_aborted, 0u);

    ManycoreSystem restored(cfg);
    FreshPowerCheck restored_check(restored);
    restored.add_observer(&restored_check);
    restored.restore(load_snapshot_file(snapshot.path()));
    restored.run(restored.restored_horizon());
    EXPECT_EQ(restored_check.samples, horizon / 2 / cfg.power_epoch);
    EXPECT_EQ(restored_check.mismatches, 0u);
    EXPECT_GT(restored_check.faulty_samples, 0u);
}

}  // namespace
}  // namespace mcs
