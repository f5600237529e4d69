#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/criticality.hpp"
#include "app/workload.hpp"
#include "arch/technology.hpp"
#include "core/metrics.hpp"
#include "core/schedulers.hpp"
#include "core/snapshot.hpp"
#include "noc/link_test.hpp"
#include "noc/network.hpp"
#include "power/power_manager.hpp"
#include "power/power_model.hpp"
#include "sbst/fault_model.hpp"
#include "sbst/test_suite.hpp"
#include "sim/time.hpp"
#include "thermal/thermal_model.hpp"

namespace mcs {

class Mapper;
class ScenarioDriver;
class Simulator;
class SystemObserver;
struct SystemContext;
class PlatformEngine;
class WorkloadEngine;
class TestEngine;

enum class SchedulerKind { PowerAware, Periodic, Greedy, None, DeadlineAware };
enum class MapperKind {
    TestAware,
    ThermalAware,
    UtilizationOriented,
    Contiguous,
    Random,
    FirstFit,
    ReliabilityWeighted,
};

const char* to_string(SchedulerKind kind);
const char* to_string(MapperKind kind);

/// Full configuration of one simulated system instance. Defaults reproduce
/// the paper's headline setup: 8x8 mesh at 16 nm, PID power capping to the
/// dark-silicon TDP, power-aware online testing, test-aware mapping.
struct SystemConfig {
    int width = 8;
    int height = 8;
    TechNode node = TechNode::nm16;
    std::uint64_t seed = 42;
    /// Scales the technology TDP (power-budget sweeps, E3).
    double tdp_scale = 1.0;

    WorkloadParams workload{};
    NocParams noc{};
    ActivityFactors activity{};
    PowerManagerParams power{};
    ThermalParams thermal{};
    AgingParams aging{};
    CriticalityParams criticality{};

    bool enable_fault_injection = false;
    FaultModelParams faults{};

    SchedulerKind scheduler = SchedulerKind::PowerAware;
    PowerAwareParams power_aware{};
    SimDuration periodic_test_period = 1 * kSecond;
    /// When set, overrides `scheduler`: the system installs the returned
    /// policy instead (plug-in point for user-defined schedulers).
    std::function<std::unique_ptr<TestScheduler>()> scheduler_factory;

    MapperKind mapper = MapperKind::TestAware;
    /// When set, overrides `mapper` (plug-in point for user mappers).
    std::function<std::unique_ptr<Mapper>()> mapper_factory;
    /// The mapper may claim a core that is mid-test (the test is aborted);
    /// keeps testing strictly non-intrusive to workload admission.
    bool abort_tests_for_mapping = true;
    /// After an aborted test the core is not offered to the test scheduler
    /// again for this long (prevents start/abort churn under contention).
    SimDuration test_retry_backoff = 20 * kMillisecond;
    /// Segmented sessions (extension): the SBST suite executes routine by
    /// routine and an aborted session resumes from the last completed
    /// routine instead of restarting, so under mapping contention only one
    /// routine's worth of work is ever lost. Detection still happens at
    /// full-suite completion.
    bool segmented_tests = false;

    /// SBST library; defaults to TestSuite::standard().
    std::optional<TestSuite> suite{};

    /// NoC online testing (extension): when enabled, idle links are tested
    /// under the same power budget; link wear is controlled by
    /// `noc_test.fault_rate_per_link_s`.
    bool enable_noc_testing = false;
    NocTestParams noc_test{};

    // Controller / observer epochs.
    SimDuration power_epoch = 100 * kMicrosecond;
    SimDuration thermal_epoch = 500 * kMicrosecond;
    SimDuration test_epoch = 500 * kMicrosecond;
    SimDuration wear_epoch = 1 * kMillisecond;  ///< aging + fault arrivals
    SimDuration trace_epoch = 5 * kMillisecond;
};

/// The integrated manycore simulation: dynamic workload arrival, runtime
/// mapping, task execution over the NoC, PID power capping with DVFS and
/// power gating, thermal and aging tracking, and online test scheduling.
///
/// Structurally this is a façade: construction builds a SystemContext (the
/// shared substrate -- chip, NoC, clock, budget, RNG streams, observer
/// hub) and composes three engines over it -- PlatformEngine (power /
/// thermal / wear / trace epochs), WorkloadEngine (admission, mapping,
/// task execution) and TestEngine (core/link test sessions). run() wires
/// the engines onto the simulator and finalizes the metrics. See
/// docs/architecture.md for the layering.
///
/// Typical use:
///     ManycoreSystem sys(cfg);
///     RunMetrics m = sys.run(20 * kSecond);
class ManycoreSystem {
public:
    explicit ManycoreSystem(SystemConfig cfg);
    ~ManycoreSystem();
    ManycoreSystem(const ManycoreSystem&) = delete;
    ManycoreSystem& operator=(const ManycoreSystem&) = delete;

    /// Runs the system for `horizon` simulated time and returns the metrics.
    /// May only be called once per instance.
    RunMetrics run(SimDuration horizon);

    /// Registers a checkpoint: run() pauses at `when` (which must lie on a
    /// power-epoch boundary -- the capture invariant all components share)
    /// and writes an "mcs.snapshot" document to `path` before continuing.
    /// The checkpoint is unobservable to the simulation: the continued run
    /// produces byte-identical reports, traces, and metrics. Must be called
    /// before run(); multiple checkpoints are allowed.
    void checkpoint_at(SimTime when, std::string path);

    /// Rebuilds this (freshly constructed, not yet run) system from a
    /// snapshot document. The configuration must match the captured one:
    /// the structural fingerprint always, the full fingerprint unless
    /// `opts.relax_config` (fork-from-checkpoint sweeps). Attach the tracer
    /// BEFORE restoring so the captured trace ring can be reloaded. After
    /// restore, run() accepts any horizon in (capture point,
    /// restored_horizon()]; only the full captured horizon reproduces the
    /// uninterrupted run byte-for-byte.
    void restore(const telemetry::JsonValue& doc, RestoreOptions opts = {});

    bool restored() const noexcept { return restored_; }
    /// Horizon of the captured run (the latest horizon run() accepts after
    /// a restore, and the default continuation target).
    SimDuration restored_horizon() const noexcept {
        return restored_horizon_;
    }

    /// Attaches an (optional, non-owning) event tracer recording the run's
    /// discrete events: app arrival/mapping/completion, test session
    /// begin/end/abort, DVFS transitions, capping actuations and power
    /// gating. Must be called before run(); pass nullptr to detach.
    void set_tracer(telemetry::Tracer* tracer);

    /// Registers a (non-owning) SystemObserver on the hook layer; it
    /// receives the run's typed events, and the periodic power/state trace
    /// samples when it wants them, after the run's own telemetry has
    /// recorded each one. The observer must outlive the system.
    void add_observer(SystemObserver* observer);

    /// Attaches a declarative scenario driver (timed directives replayed
    /// through the engine seams; see src/scenario/ and docs/scenarios.md).
    /// The façade takes ownership, binds the driver to this system, starts
    /// it from run(), and carries its replay position through snapshots.
    /// Must be called before restore()/run(); at most one driver.
    void attach_scenario(std::unique_ptr<ScenarioDriver> driver);
    const ScenarioDriver* scenario() const noexcept { return scenario_.get(); }

    /// Live metrics registry for this run: "power.*" counters are bumped by
    /// the power manager as it actuates, "system.*" counters/histograms by
    /// the workload and test paths, and "scheduler.*" counters are exported
    /// by the policy at finalize().
    telemetry::MetricsRegistry& registry() noexcept;
    const telemetry::MetricsRegistry& registry() const noexcept;

    /// Makes capping and admission ignore QoS classes (deadlines are still
    /// measured); the baseline for the mixed-criticality experiments. Must
    /// be called before run().
    void set_priority_blind(bool blind);

    // --- introspection (tests, examples) ---
    const SystemConfig& config() const noexcept { return cfg_; }
    Chip& chip() noexcept;
    const Chip& chip() const noexcept;
    Simulator& simulator() noexcept;
    const Network& network() const noexcept;
    const PowerBudget& budget() const noexcept;
    /// Mutable budget access (scenario directives retarget the TDP mid-run).
    PowerBudget& budget() noexcept;
    const FaultInjector* fault_injector() const noexcept;
    const LinkTester* link_tester() const noexcept;
    const AgingTracker& aging() const noexcept;
    const TestSuite& suite() const noexcept;
    const TestScheduler& scheduler() const noexcept;
    const Mapper& mapper() const noexcept;
    int tests_running() const noexcept;

    // --- engine access (unit tests, scenario scripting) ---
    WorkloadEngine& workload_engine() noexcept;
    TestEngine& test_engine() noexcept;
    PlatformEngine& platform_engine() noexcept;

private:
    RunMetrics finalize();
    /// Serializes the complete system state (implemented in snapshot.cpp).
    void write_snapshot(std::ostream& out, SimDuration horizon) const;
    /// Registers epoch slot `slot` (0 = power .. 4 = trace) with its first
    /// firing at `first_at`, its events recorded as kEpochKinds[slot].
    void register_epoch(std::size_t slot, SimTime first_at);
    /// Snapshot kind names of the five epochs, indexed by slot (the slot
    /// order is part of the behavioral contract -- see run()).
    static constexpr std::array<const char*, 5> kEpochKinds = {
        "power_epoch", "thermal_epoch", "test_epoch", "wear_epoch",
        "trace_epoch"};

    struct Checkpoint {
        SimTime at = 0;
        std::string path;
    };

    SystemConfig cfg_;
    std::unique_ptr<SystemContext> ctx_;
    std::unique_ptr<PlatformEngine> platform_;
    std::unique_ptr<WorkloadEngine> workload_;
    std::unique_ptr<TestEngine> test_;
    std::unique_ptr<ScenarioDriver> scenario_;
    std::vector<Checkpoint> checkpoints_;
    /// Which of the five epochs are registered, by slot.
    std::array<bool, kEpochKinds.size()> epoch_registered_{};
    bool ran_ = false;
    bool restored_ = false;
    SimDuration restored_horizon_ = 0;
};

/// Convenience: translate a target *occupancy* (fraction of core-time
/// reserved by mapped applications) into an arrival rate, accounting for
/// the reservation inflation of dependency stalls inside task graphs.
double rate_for_occupancy(double target_occupancy,
                          const TaskGraphGenParams& graphs,
                          double chip_cycles_per_s,
                          std::uint64_t seed = 1);

}  // namespace mcs
