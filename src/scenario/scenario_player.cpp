#include "scenario/scenario_player.hpp"

#include <utility>

#include "core/platform_engine.hpp"
#include "core/system.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "power/power_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

/// Burst application ids live far above the workload generator's dense
/// 1..n range so the two id spaces can never collide; within the burst
/// space, each directive owns a block wide enough for its whole batch.
constexpr std::uint64_t kBurstIdBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kBurstIdStride = 100'000;

}  // namespace

ScenarioPlayer::ScenarioPlayer(ScenarioSpec spec)
    : spec_(std::move(spec)),
      fingerprint_(scenario_fingerprint(spec_)),
      fingerprint_u64_(scenario_fingerprint_u64(spec_)) {
    MCS_REQUIRE(!spec_.directives.empty(), "scenario: empty spec");
}

void ScenarioPlayer::bind(ManycoreSystem& sys) {
    MCS_REQUIRE(sys_ == nullptr, "scenario player already bound");
    sys_ = &sys;
    // The budget still sits at the configuration TDP here (attachment
    // precedes restore and run), so this anchors set-budget scaling.
    orig_tdp_w_ = sys.budget().tdp_w();
    // Structural validation against the bound system; parse could not see
    // the chip, so id/level ranges are checked here, for restores too.
    const std::size_t cores = sys.chip().core_count();
    const int levels = static_cast<int>(sys.chip().vf_level_count());
    for (const ScenarioDirective& d : spec_.directives) {
        for (const CoreId id : d.cores) {
            MCS_REQUIRE(id < cores, "scenario: core id exceeds chip size");
        }
        if (d.kind == DirectiveKind::InjectFault) {
            MCS_REQUIRE(d.core < cores,
                        "scenario: core id exceeds chip size");
        }
        if (d.kind == DirectiveKind::SetVf) {
            MCS_REQUIRE(d.vf_level < levels,
                        "scenario: V/F level exceeds the table");
        }
    }
}

void ScenarioPlayer::begin(SimDuration horizon) {
    MCS_REQUIRE(sys_ != nullptr, "scenario player not bound");
    MCS_REQUIRE(spec_.directives.back().at < horizon,
                "scenario: directive at or beyond the run horizon");
    next_ = 0;
    schedule_next(spec_.directives.front().at);
}

void ScenarioPlayer::schedule_next(SimTime when) {
    sys_->simulator().schedule_at(
        when,
        [this] {
            apply(next_);
            ++next_;
            if (next_ < spec_.directives.size()) {
                schedule_next(spec_.directives[next_].at);
            }
        },
        EventRecord{"scenario", next_});
}

std::vector<CoreId> ScenarioPlayer::targets_of(
    const ScenarioDirective& d) const {
    if (!d.cores.empty()) {
        return d.cores;
    }
    std::vector<CoreId> all(sys_->chip().core_count());
    for (CoreId id = 0; id < all.size(); ++id) {
        all[id] = id;
    }
    return all;
}

std::vector<ApplicationSpec> ScenarioPlayer::burst_apps(
    std::size_t index) const {
    MCS_REQUIRE(sys_ != nullptr, "scenario player not bound");
    MCS_REQUIRE(index < spec_.directives.size(),
                "scenario: directive index out of range");
    const ScenarioDirective& d = spec_.directives[index];
    MCS_REQUIRE(d.kind == DirectiveKind::ArrivalBurst,
                "scenario: not an arrival-burst directive");
    const WorkloadParams& wl = sys_->config().workload;
    TaskGraphGenParams shape = wl.graphs;
    if (d.tasks > 0) {
        shape.min_tasks = d.tasks;
        shape.max_tasks = d.tasks;
    }
    TaskGraphGenerator gen(shape);
    // Scenario-local stream: rooted at the spec fingerprint and the
    // directive index, fully decoupled from the engines' RNG streams (the
    // stochastic workload/fault processes are unperturbed by the burst).
    Rng rng(Rng::stream_seed(fingerprint_u64_, index));
    std::vector<ApplicationSpec> out;
    out.reserve(d.apps);
    for (std::uint64_t j = 0; j < d.apps; ++j) {
        TaskGraph graph = gen.generate(rng);
        SimDuration deadline = 0;
        if (d.qos != QosClass::BestEffort) {
            // Same deadline derivation as the workload generator's.
            const double ideal_s =
                static_cast<double>(graph.critical_path_cycles()) /
                wl.reference_freq_hz;
            const double factor = d.qos == QosClass::HardRealTime
                                      ? wl.hard_deadline_factor
                                      : wl.soft_deadline_factor;
            deadline = from_seconds(ideal_s * factor);
        }
        out.push_back(ApplicationSpec{
            kBurstIdBase + index * kBurstIdStride + j, d.at, d.qos,
            deadline, std::move(graph)});
    }
    return out;
}

void ScenarioPlayer::apply(std::size_t index) {
    const ScenarioDirective& d = spec_.directives[index];
    const SimTime now = sys_->simulator().now();
    switch (d.kind) {
        case DirectiveKind::ArrivalBurst: {
            WorkloadEngine& workload = sys_->workload_engine();
            for (ApplicationSpec& spec : burst_apps(index)) {
                const std::size_t idx = workload.inject(std::move(spec));
                workload.on_arrival(idx);
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
            // False (injection disabled / core already faulted-latent) is
            // not an error: the directive is a stress stimulus, not an
            // assertion about the run's current state.
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

void ScenarioPlayer::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.field("fingerprint", fingerprint_);
    w.field("name", spec_.name);
    w.field("next", static_cast<std::uint64_t>(next_));
    w.end_object();
}

void ScenarioPlayer::load_state(const telemetry::JsonValue& doc) {
    MCS_REQUIRE(doc.at("fingerprint").string() == fingerprint_,
                "snapshot scenario: spec fingerprint mismatch (the "
                "attached scenario differs from the captured one)");
    const std::uint64_t next = doc.at("next").u64();
    MCS_REQUIRE(next <= spec_.directives.size(),
                "snapshot scenario: replay position out of range");
    next_ = static_cast<std::size_t>(next);
}

void ScenarioPlayer::reinject_restored() {
    WorkloadEngine& workload = sys_->workload_engine();
    for (std::size_t i = 0; i < next_; ++i) {
        if (spec_.directives[i].kind != DirectiveKind::ArrivalBurst) {
            continue;
        }
        // Same specs in the same order as the live run appended them; the
        // engine's runtime state (loaded right after this) indexes apps by
        // position, so the vectors line up exactly.
        for (ApplicationSpec& spec : burst_apps(i)) {
            (void)workload.inject(std::move(spec));
        }
    }
}

void ScenarioPlayer::reapply_restored() {
    // The power budget's TDP is rebuilt from configuration, so an applied
    // set-budget directive must be replayed onto the restored budget. All
    // other directives' effects live inside persisted engine state.
    for (std::size_t i = next_; i-- > 0;) {
        const ScenarioDirective& d = spec_.directives[i];
        if (d.kind == DirectiveKind::SetBudget) {
            sys_->budget().set_tdp(orig_tdp_w_ * d.tdp_scale);
            break;
        }
    }
}

void ScenarioPlayer::schedule_restored_directive(std::uint64_t index,
                                                 SimTime when) {
    MCS_REQUIRE(sys_ != nullptr, "scenario player not bound");
    MCS_REQUIRE(index == next_,
                "snapshot scenario: pending directive index does not match "
                "the replay position");
    MCS_REQUIRE(next_ < spec_.directives.size() &&
                    spec_.directives[next_].at == when,
                "snapshot scenario: pending directive time mismatch");
    schedule_next(when);
}

std::unique_ptr<ScenarioPlayer> make_scenario_player(
    const std::string& path) {
    return std::make_unique<ScenarioPlayer>(load_scenario_file(path));
}

}  // namespace mcs
