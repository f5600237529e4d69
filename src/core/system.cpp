#include "core/system.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "core/platform_engine.hpp"
#include "core/scenario_hook.hpp"
#include "core/system_context.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "telemetry/observer_adapter.hpp"
#include "util/require.hpp"

namespace mcs {

const char* to_string(SchedulerKind kind) {
    switch (kind) {
        case SchedulerKind::PowerAware: return "power-aware";
        case SchedulerKind::Periodic: return "periodic";
        case SchedulerKind::Greedy: return "greedy";
        case SchedulerKind::None: return "none";
        case SchedulerKind::DeadlineAware: return "deadline";
    }
    return "?";
}

const char* to_string(MapperKind kind) {
    switch (kind) {
        case MapperKind::TestAware: return "test-aware (TAUM)";
        case MapperKind::ThermalAware: return "thermal-aware";
        case MapperKind::UtilizationOriented: return "util-oriented";
        case MapperKind::Contiguous: return "contiguous";
        case MapperKind::Random: return "random";
        case MapperKind::FirstFit: return "first-fit";
        case MapperKind::ReliabilityWeighted: return "reliability-weighted";
    }
    return "?";
}

// Composition order matters: the context owns the substrate, the platform
// engine registers the power/thermal/aging components the other two
// engines resolve through the context, and the telemetry adapter joins the
// observer hub last (it is the first -- and usually only -- observer).
ManycoreSystem::ManycoreSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      ctx_(std::make_unique<SystemContext>(cfg_)),
      platform_(std::make_unique<PlatformEngine>(*ctx_)),
      workload_(std::make_unique<WorkloadEngine>(*ctx_)),
      test_(std::make_unique<TestEngine>(*ctx_)),
      telemetry_obs_(std::make_unique<telemetry::TelemetryObserver>(
          ctx_->registry)) {
    ctx_->observers.add(telemetry_obs_.get());
}

ManycoreSystem::~ManycoreSystem() = default;

void ManycoreSystem::set_trace_sink(TraceSink sink) {
    telemetry_obs_->set_trace_sink(std::move(sink));
}

void ManycoreSystem::set_tracer(telemetry::Tracer* tracer) {
    MCS_REQUIRE(!ran_, "set_tracer must precede run()");
    ctx_->tracer = tracer;
    ctx_->power_mgr->set_tracer(tracer);
    telemetry_obs_->set_tracer(tracer);
}

void ManycoreSystem::attach_scenario(std::unique_ptr<ScenarioDriver> driver) {
    MCS_REQUIRE(!ran_ && !restored_,
                "attach_scenario must precede restore()/run()");
    MCS_REQUIRE(driver != nullptr, "scenario driver must not be null");
    MCS_REQUIRE(scenario_ == nullptr, "a scenario is already attached");
    driver->bind(*this);
    scenario_ = std::move(driver);
}

void ManycoreSystem::add_observer(SystemObserver* observer) {
    ctx_->observers.add(observer);
}

telemetry::MetricsRegistry& ManycoreSystem::registry() noexcept {
    return ctx_->registry;
}

const telemetry::MetricsRegistry& ManycoreSystem::registry() const noexcept {
    return ctx_->registry;
}

void ManycoreSystem::set_priority_blind(bool blind) {
    MCS_REQUIRE(!ran_, "set_priority_blind must precede run()");
    ctx_->priority_blind = blind;
}

void ManycoreSystem::checkpoint_at(SimTime when, std::string path) {
    MCS_REQUIRE(!ran_, "checkpoint_at must precede run()");
    MCS_REQUIRE(when > 0, "checkpoint time must be positive");
    MCS_REQUIRE(when % cfg_.power_epoch == 0,
                "checkpoints must lie on a power-epoch boundary");
    MCS_REQUIRE(!path.empty(), "checkpoint path must not be empty");
    checkpoints_.push_back({when, std::move(path)});
}

namespace {

SimDuration epoch_period(const SystemConfig& cfg, std::size_t slot) {
    switch (slot) {
        case 0: return cfg.power_epoch;
        case 1: return cfg.thermal_epoch;
        case 2: return cfg.test_epoch;
        case 3: return cfg.wear_epoch;
        case 4: return cfg.trace_epoch;
    }
    MCS_REQUIRE(false, "epoch slot out of range");
    return 0;
}

}  // namespace

void ManycoreSystem::register_epoch(std::size_t slot, SimTime first_at) {
    MCS_REQUIRE(slot < epoch_registered_.size(), "epoch slot out of range");
    MCS_REQUIRE(!epoch_registered_[slot], "epoch already registered");
    epoch_registered_[slot] = true;
    std::function<void(SimTime)> cb;
    switch (slot) {
        case 0: cb = [this](SimTime) { platform_->power_epoch(); }; break;
        case 1: cb = [this](SimTime) { platform_->thermal_epoch(); }; break;
        case 2: cb = [this](SimTime) { test_->test_epoch(); }; break;
        case 3: cb = [this](SimTime) { platform_->wear_epoch(); }; break;
        case 4: cb = [this](SimTime) { platform_->trace_epoch(); }; break;
    }
    ctx_->sim.every(epoch_period(cfg_, slot), first_at, std::move(cb),
                    EventRecord{kEpochKinds[slot]});
}

RunMetrics ManycoreSystem::run(SimDuration horizon) {
    MCS_REQUIRE(!ran_, "ManycoreSystem::run may only be called once");
    MCS_REQUIRE(horizon > 0, "run horizon must be positive");
    ran_ = true;
    if (restored_) {
        // The captured arrival trace only extends to the captured horizon,
        // so a longer run would starve; any horizon inside (now, captured]
        // is a valid truncation (the what-if service's horizon axis).
        // Byte-identical continuation still requires the captured horizon.
        MCS_REQUIRE(horizon <= restored_horizon_,
                    "a restored system cannot run past the snapshot's "
                    "horizon (the captured arrival trace ends there)");
        MCS_REQUIRE(horizon > ctx_->sim.now(),
                    "a restored system's horizon must lie after the "
                    "capture point");
    } else {
        workload_->admit_workload(horizon);
        // Epoch registration order is part of the behavioral contract: at a
        // shared timestamp the event queue breaks ties by insertion order.
        for (std::size_t slot = 0; slot < kEpochKinds.size(); ++slot) {
            register_epoch(slot,
                           ctx_->sim.now() + epoch_period(cfg_, slot));
        }
        // The scenario's first directive event enters the queue after the
        // epochs (part of the registration-order contract; directive times
        // are validated against the horizon here).
        if (scenario_ != nullptr) {
            scenario_->begin(horizon);
        }
        if (ctx_->tracer != nullptr) {
            ctx_->tracer->record(
                ctx_->sim.now(), telemetry::TraceCategory::Sim,
                telemetry::TracePhase::Instant, "run_until_begin", 0,
                static_cast<std::int64_t>(horizon));
        }
    }
    // Advance in checkpoint segments. advance_until is marker-free and a
    // clock bump between events is unobservable, so the segmented run is
    // event-for-event (and byte-for-byte) the uninterrupted run.
    std::stable_sort(checkpoints_.begin(), checkpoints_.end(),
                     [](const Checkpoint& a, const Checkpoint& b) {
                         return a.at < b.at;
                     });
    for (const Checkpoint& cp : checkpoints_) {
        MCS_REQUIRE(cp.at > ctx_->sim.now(),
                    "checkpoint time must be ahead of the clock");
        MCS_REQUIRE(cp.at < horizon,
                    "checkpoints must precede the run horizon");
        ctx_->sim.advance_until(cp.at);
        std::ofstream out(cp.path, std::ios::binary);
        MCS_REQUIRE(out.good(), "cannot open checkpoint file for writing");
        write_snapshot(out, horizon);
        out << '\n';
        out.flush();
        MCS_REQUIRE(out.good(), "checkpoint write failed");
    }
    ctx_->sim.advance_until(horizon);
    if (ctx_->tracer != nullptr) {
        ctx_->tracer->record(
            ctx_->sim.now(), telemetry::TraceCategory::Sim,
            telemetry::TracePhase::Instant, "run_until_end", 0,
            static_cast<std::int64_t>(ctx_->sim.events_executed()));
    }
    return finalize();
}

RunMetrics ManycoreSystem::finalize() {
    const SimTime end = ctx_->sim.now();
    ctx_->chip.checkpoint_all(end);
    platform_->accumulate_energy(end);

    RunMetrics& m = ctx_->metrics;
    m.sim_time = end;
    m.core_count = ctx_->chip.core_count();
    MCS_REQUIRE(to_seconds(end) > 0.0, "finalize before any simulated time");

    workload_->finalize_into(m, end);
    test_->finalize_into(m, end);
    platform_->finalize_into(m, end);

    ctx_->registry.counter("sim.events_cancelled")
        .inc(ctx_->sim.events_cancelled());
    ctx_->registry.gauge("system.peak_temp_c").set(platform_->peak_temp_c());
    ctx_->registry.gauge("system.mean_power_w").set(m.mean_power_w);
    ctx_->registry.gauge("system.mean_chip_utilization")
        .set(m.mean_chip_utilization);
    return m;
}

// --------------------------------------------------------- introspection

Chip& ManycoreSystem::chip() noexcept { return ctx_->chip; }
const Chip& ManycoreSystem::chip() const noexcept { return ctx_->chip; }
Simulator& ManycoreSystem::simulator() noexcept { return ctx_->sim; }
const Network& ManycoreSystem::network() const noexcept { return ctx_->noc; }
const PowerBudget& ManycoreSystem::budget() const noexcept {
    return ctx_->budget;
}
PowerBudget& ManycoreSystem::budget() noexcept { return ctx_->budget; }
const FaultInjector* ManycoreSystem::fault_injector() const noexcept {
    return platform_->fault_injector();
}
const LinkTester* ManycoreSystem::link_tester() const noexcept {
    return test_->link_tester();
}
const AgingTracker& ManycoreSystem::aging() const noexcept {
    return platform_->aging_tracker();
}
const TestSuite& ManycoreSystem::suite() const noexcept {
    return ctx_->suite;
}
const TestScheduler& ManycoreSystem::scheduler() const noexcept {
    return test_->scheduler();
}
const Mapper& ManycoreSystem::mapper() const noexcept {
    return workload_->mapper();
}
int ManycoreSystem::tests_running() const noexcept {
    return test_->tests_running();
}
WorkloadEngine& ManycoreSystem::workload_engine() noexcept {
    return *workload_;
}
TestEngine& ManycoreSystem::test_engine() noexcept { return *test_; }
PlatformEngine& ManycoreSystem::platform_engine() noexcept {
    return *platform_;
}

double rate_for_occupancy(double target_occupancy,
                          const TaskGraphGenParams& graphs,
                          double chip_cycles_per_s, std::uint64_t seed) {
    MCS_REQUIRE(target_occupancy > 0.0, "target occupancy must be positive");
    MCS_REQUIRE(chip_cycles_per_s > 0.0, "chip capacity must be positive");
    TaskGraphGenerator gen(graphs);
    Rng rng(seed);
    double reserved_core_cycles = 0.0;
    constexpr int kSamples = 1000;
    for (int i = 0; i < kSamples; ++i) {
        const TaskGraph g = gen.generate(rng);
        // A mapped app reserves graph.size() cores for roughly its critical
        // path; dependency stalls inflate reservation beyond busy cycles.
        reserved_core_cycles += static_cast<double>(g.size()) *
                                static_cast<double>(g.critical_path_cycles());
    }
    reserved_core_cycles /= kSamples;
    return target_occupancy * chip_cycles_per_s / reserved_core_cycles;
}

}  // namespace mcs
