#include "scenario/scenario_player.hpp"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/platform_engine.hpp"
#include "core/system.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "power/power_manager.hpp"
#include "sim/simulator.hpp"
#include "support/differential.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

using testsupport::CheckpointPlan;
using testsupport::RunArtifacts;
using testsupport::TempFile;

/// 4x4 differential platform (mirrors test_snapshot's baseline).
SystemConfig mini_config(std::uint64_t seed = 42) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.seed = seed;
    cfg.enable_fault_injection = true;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.5, cfg.workload.graphs, capacity);
    return cfg;
}

/// Inline spec hitting every restore-relevant directive class on a 4x4
/// chip inside a 600 ms horizon: a burst (reinject path), a budget cut
/// (reapply path), and state-bearing seam calls in between.
ScenarioSpec mini_spec() {
    return parse_scenario_text(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"mini\","
        "\"directives\":["
        "{\"at_us\":150000,\"kind\":\"arrival-burst\",\"apps\":4,"
        "\"tasks\":4,\"qos\":\"soft-RT\"},"
        "{\"at_us\":250000,\"kind\":\"set-budget\",\"tdp_scale\":0.7},"
        "{\"at_us\":350000,\"kind\":\"abort-tests\"},"
        "{\"at_us\":450000,\"kind\":\"set-vf\",\"level\":1},"
        "{\"at_us\":500000,\"kind\":\"inject-wear\",\"cores\":[0,1,5],"
        "\"damage\":0.05},"
        "{\"at_us\":550000,\"kind\":\"inject-fault\",\"core\":2,"
        "\"unit\":\"ALU\",\"fault\":\"stuck-at\"}]}");
}

constexpr SimDuration kMiniHorizon = 600 * kMillisecond;

/// One scenario-driven run through the real ScenarioPlayer.
RunArtifacts run_scenario(const SystemConfig& cfg, const ScenarioSpec& spec,
                          SimDuration horizon,
                          const std::vector<CheckpointPlan>& checkpoints = {}) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec));
    for (const CheckpointPlan& cp : checkpoints) {
        sys.checkpoint_at(cp.at, cp.path);
    }
    return testsupport::capture(sys, tracer, horizon);
}

/// Restored continuation of a scenario run: same spec attached, then the
/// snapshot reloaded (attachment must precede restore).
RunArtifacts run_scenario_restored(const SystemConfig& cfg,
                                   const ScenarioSpec& spec,
                                   const std::string& snapshot_path) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec));
    sys.restore(load_snapshot_file(snapshot_path));
    return testsupport::capture(sys, tracer, sys.restored_horizon());
}

/// The differential reference: a driver that hand-issues the exact same
/// engine-seam calls the ScenarioPlayer makes, through its own chained
/// queued events. Burst applications come from an embedded player (the
/// generator is part of the scenario contract); every other seam call is
/// spelled out explicitly. Byte-identical artifacts prove the player adds
/// nothing beyond the documented seam sequence.
class HandDriver final : public ScenarioDriver {
public:
    explicit HandDriver(ScenarioSpec spec) : player_(std::move(spec)) {}

    void bind(ManycoreSystem& sys) override {
        sys_ = &sys;
        orig_tdp_w_ = sys.budget().tdp_w();
        player_.bind(sys);
    }

    void begin(SimDuration /*horizon*/) override { schedule(0); }

    // This leg never checkpoints; any snapshot hook firing is a test bug.
    void save_state(telemetry::JsonWriter&) const override {
        MCS_REQUIRE(false, "hand-driven leg must not snapshot");
    }
    void load_state(const telemetry::JsonValue&) override {
        MCS_REQUIRE(false, "hand-driven leg must not restore");
    }
    void reinject_restored() override {
        MCS_REQUIRE(false, "hand-driven leg must not restore");
    }
    void reapply_restored() override {
        MCS_REQUIRE(false, "hand-driven leg must not restore");
    }
    void schedule_restored_directive(std::uint64_t, SimTime) override {
        MCS_REQUIRE(false, "hand-driven leg must not restore");
    }
    bool directive_due() const override {
        MCS_REQUIRE(false, "hand-driven leg must not restore");
        return false;
    }

private:
    const ScenarioSpec& spec() const { return player_.spec(); }

    void schedule(std::size_t i) {
        sys_->simulator().schedule_at(spec().directives[i].at, [this, i] {
            apply_by_hand(i);
            if (i + 1 < spec().directives.size()) {
                schedule(i + 1);
            }
        });
    }

    std::vector<CoreId> targets_of(const ScenarioDirective& d) const {
        if (!d.cores.empty()) {
            return d.cores;
        }
        std::vector<CoreId> all(sys_->chip().core_count());
        for (CoreId id = 0; id < all.size(); ++id) {
            all[id] = id;
        }
        return all;
    }

    void apply_by_hand(std::size_t i) {
        const ScenarioDirective& d = spec().directives[i];
        const SimTime now = sys_->simulator().now();
        switch (d.kind) {
            case DirectiveKind::ArrivalBurst: {
                WorkloadEngine& workload = sys_->workload_engine();
                for (ApplicationSpec& spec : player_.burst_apps(i)) {
                    workload.on_arrival(workload.inject(std::move(spec)));
                }
                break;
            }
            case DirectiveKind::AbortTests: {
                TestEngine& test = sys_->test_engine();
                for (const CoreId id : targets_of(d)) {
                    if (test.test_active(id)) {
                        test.abort_test(id);
                    }
                }
                break;
            }
            case DirectiveKind::InvalidateProgress: {
                TestEngine& test = sys_->test_engine();
                for (const CoreId id : targets_of(d)) {
                    test.invalidate_progress(id);
                }
                break;
            }
            case DirectiveKind::InjectFault:
                (void)sys_->platform_engine().force_fault(d.core, d.unit,
                                                          d.fault);
                break;
            case DirectiveKind::InjectWear: {
                const std::vector<CoreId> cores = targets_of(d);
                sys_->platform_engine().inject_wear(cores, d.damage);
                break;
            }
            case DirectiveKind::SetBudget:
                sys_->budget().set_tdp(orig_tdp_w_ * d.tdp_scale);
                break;
            case DirectiveKind::SetVf: {
                PowerManager& pm = sys_->platform_engine().power_manager();
                for (const CoreId id : targets_of(d)) {
                    const Core& c = sys_->chip().core(id);
                    if ((c.state() == CoreState::Idle ||
                         c.state() == CoreState::Busy) &&
                        c.vf_level() != d.vf_level) {
                        pm.force_vf(now, id, d.vf_level);
                    }
                }
                break;
            }
        }
    }

    ScenarioPlayer player_;  ///< bound but never begun: burst_apps only
    ManycoreSystem* sys_ = nullptr;
    double orig_tdp_w_ = 0.0;
};

RunArtifacts run_hand_driven(const SystemConfig& cfg,
                             const ScenarioSpec& spec, SimDuration horizon) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    sys.attach_scenario(std::make_unique<HandDriver>(spec));
    return testsupport::capture(sys, tracer, horizon);
}

void expect_identical(const RunArtifacts& got, const RunArtifacts& want,
                      const std::string& label) {
    EXPECT_EQ(got.report, want.report) << label << ": run report drifted";
    EXPECT_EQ(got.trace, want.trace) << label << ": event trace drifted";
    EXPECT_EQ(got.registry, want.registry)
        << label << ": metrics registry drifted";
}

// ----------------------------------------------------- differential legs

TEST(ScenarioPlayer, MatchesHandDrivenSeamCalls) {
    const ScenarioSpec spec = mini_spec();
    const SystemConfig cfg = mini_config();
    const RunArtifacts played = run_scenario(cfg, spec, kMiniHorizon);
    const RunArtifacts hand = run_hand_driven(cfg, spec, kMiniHorizon);
    expect_identical(played, hand, "player-vs-hand");
}

TEST(ScenarioPlayer, MatchesHandDrivenOnCorpus) {
    // The committed corpus targets the full 8x8 chip; moderate load keeps
    // six 1.6 s replays affordable.
    SystemConfig cfg;
    cfg.seed = 7;
    cfg.enable_fault_injection = true;
    const double capacity = 64.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.2, cfg.workload.graphs, capacity);
    const SimDuration horizon = 1600 * kMillisecond;
    for (const char* name :
         {"burst_at_budget_edge", "abort_cascade", "budget_cut",
          "vf_throttle_step", "wear_acceleration", "combined_stress"}) {
        const ScenarioSpec spec = load_scenario_file(
            std::string(MCS_SOURCE_DIR) + "/examples/scenarios/" + name +
            ".json");
        expect_identical(run_scenario(cfg, spec, horizon),
                         run_hand_driven(cfg, spec, horizon), name);
    }
}

TEST(ScenarioPlayer, CheckpointMidScenarioRestoresByteIdentical) {
    const ScenarioSpec spec = mini_spec();
    for (const SchedulerKind kind :
         {SchedulerKind::PowerAware, SchedulerKind::Periodic,
          SchedulerKind::Greedy, SchedulerKind::None,
          SchedulerKind::DeadlineAware}) {
        SystemConfig cfg = mini_config(5);
        cfg.scheduler = kind;
        cfg.periodic_test_period = 100 * kMillisecond;
        const std::string label = to_string(kind);
        const RunArtifacts fresh = run_scenario(cfg, spec, kMiniHorizon);

        // Checkpoints straddle the directive list: after the burst (the
        // reinject path) and after budget/VF/wear (the reapply path).
        TempFile early("scenario_cp_early"), late("scenario_cp_late");
        const std::vector<CheckpointPlan> plans = {
            {200 * kMillisecond, early.path()},
            {520 * kMillisecond, late.path()},
        };
        expect_identical(run_scenario(cfg, spec, kMiniHorizon, plans),
                         fresh, label + "/interrupted");
        expect_identical(run_scenario_restored(cfg, spec, early.path()),
                         fresh, label + "/restored-early");
        expect_identical(run_scenario_restored(cfg, spec, late.path()),
                         fresh, label + "/restored-late");
    }
}

TEST(ScenarioPlayer, BurstAppsAreDeterministic) {
    const ScenarioSpec spec = mini_spec();
    ManycoreSystem a(mini_config()), b(mini_config());
    ScenarioPlayer pa(spec), pb(spec);
    pa.bind(a);
    pb.bind(b);
    const auto apps_a = pa.burst_apps(0);
    const auto apps_b = pb.burst_apps(0);
    ASSERT_EQ(apps_a.size(), 4u);
    ASSERT_EQ(apps_b.size(), apps_a.size());
    for (std::size_t i = 0; i < apps_a.size(); ++i) {
        EXPECT_EQ(apps_a[i].id, apps_b[i].id);
        EXPECT_GE(apps_a[i].id, std::uint64_t{1} << 40);
        EXPECT_EQ(apps_a[i].arrival, 150 * kMillisecond);
        EXPECT_EQ(apps_a[i].qos, QosClass::SoftRealTime);
        EXPECT_GT(apps_a[i].relative_deadline, 0u);
        EXPECT_EQ(apps_a[i].relative_deadline, apps_b[i].relative_deadline);
        EXPECT_EQ(apps_a[i].graph.size(), 4u);
    }
}

// ---------------------------------------------------------------- guards

TEST(ScenarioPlayer, LifecycleGuards) {
    const ScenarioSpec spec = mini_spec();
    // At most one driver, only before run/restore.
    {
        ManycoreSystem sys(mini_config());
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec));
        EXPECT_THROW(
            sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec)),
            RequireError);
    }
    {
        ManycoreSystem sys(mini_config());
        sys.run(100 * kMillisecond);
        EXPECT_THROW(
            sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec)),
            RequireError);
    }
    // The last directive must fire strictly inside the horizon.
    {
        ManycoreSystem sys(mini_config());
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec));
        EXPECT_THROW(sys.run(550 * kMillisecond), RequireError);
    }
}

TEST(ScenarioPlayer, BindValidatesAgainstTheChip) {
    // Core 16 does not exist on a 4x4 chip.
    const ScenarioSpec bad_core = parse_scenario_text(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"bad\",\"directives\":["
        "{\"at_us\":1000,\"kind\":\"abort-tests\",\"cores\":[16]}]}");
    ManycoreSystem sys(mini_config());
    EXPECT_THROW(
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(bad_core)),
        RequireError);

    // V/F level past the technology table.
    const ScenarioSpec bad_level = parse_scenario_text(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"bad\",\"directives\":["
        "{\"at_us\":1000,\"kind\":\"set-vf\",\"level\":64}]}");
    ManycoreSystem sys2(mini_config());
    EXPECT_THROW(
        sys2.attach_scenario(std::make_unique<ScenarioPlayer>(bad_level)),
        RequireError);
}

TEST(ScenarioPlayer, RestoreGuards) {
    const ScenarioSpec spec = mini_spec();
    const SystemConfig cfg = mini_config();
    TempFile snap("scenario_restore_guard");
    run_scenario(cfg, spec, kMiniHorizon,
                 {{300 * kMillisecond, snap.path()}});

    // A scenario snapshot cannot be restored without the scenario.
    {
        ManycoreSystem sys(cfg);
        EXPECT_THROW(sys.restore(load_snapshot_file(snap.path())),
                     RequireError);
    }
    // ...nor under a different spec (fingerprint mismatch).
    {
        ScenarioSpec other = spec;
        other.directives[0].apps += 1;
        ManycoreSystem sys(cfg);
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(other));
        EXPECT_THROW(sys.restore(load_snapshot_file(snap.path())),
                     RequireError);
    }
    // ...and a plain snapshot rejects an attached scenario.
    {
        TempFile plain("scenario_plain_guard");
        testsupport::run_reference(cfg, kMiniHorizon,
                                   {{300 * kMillisecond, plain.path()}});
        ManycoreSystem sys(cfg);
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(spec));
        EXPECT_THROW(sys.restore(load_snapshot_file(plain.path())),
                     RequireError);
    }
}

}  // namespace
}  // namespace mcs
