#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "arch/core.hpp"
#include "arch/technology.hpp"
#include "sim/time.hpp"

namespace mcs::telemetry {
class Tracer;
class MetricsRegistry;
class JsonWriter;
class JsonValue;
}  // namespace mcs::telemetry

namespace mcs {

/// A core the system offers to the test scheduler this epoch: idle (or
/// dark), unreserved and healthy. No criticality filtering is applied by
/// the system -- policies that use the metric (the paper's) threshold it
/// themselves; baselines ignore it.
struct TestCandidate {
    CoreId core = kInvalidCore;
    double criticality = 0.0;
    bool dark = false;        ///< would need waking before the test
    SimDuration idle_age = 0; ///< how long the core has been idle/dark
    double temp_c = 0.0;      ///< current core temperature
    /// Predicted remaining availability (idle-period predictor extension).
    SimDuration predicted_idle_remaining = 0;
};

/// Everything a scheduling policy may see and do in one epoch. Built fresh
/// by the system each test epoch; the callbacks stay valid only during the
/// epoch() call.
struct SchedulerContext {
    SimTime now = 0;
    double tdp_w = 0.0;
    /// Budget headroom available for admission: the power manager's control
    /// setpoint (a guarded fraction of TDP) minus the committed-power
    /// ledger (measured power plus not-yet-measured admissions). >= 0.
    double power_slack_w = 0.0;
    /// Number of test sessions currently in flight.
    int tests_running = 0;
    const std::vector<VfLevel>* vf_table = nullptr;
    /// Eligible cores, unordered; policies sort as they see fit.
    std::vector<TestCandidate> candidates;
    /// Power *increment* a test session on `core` at `vf_level` would add
    /// over what the core currently draws (uses the core's current
    /// temperature and state); this is the amount admission must fit into
    /// `power_slack_w`, and matches what the system charges to the ledger.
    std::function<double(CoreId core, int vf_level)> test_power_w;
    /// Wall time one full test session takes at `vf_level`.
    std::function<SimDuration(int vf_level)> test_duration;
    /// Launches a test session; the system wakes dark cores, switches the
    /// core to the requested level, runs the full SBST suite, and restores
    /// state on completion.
    std::function<void(CoreId core, int vf_level)> start_test;
    /// Optional event tracer (may be null); policies record admission and
    /// rejection decisions here.
    telemetry::Tracer* tracer = nullptr;
};

/// Online test-scheduling policy interface (the paper's contribution point).
class TestScheduler {
public:
    virtual ~TestScheduler() = default;
    virtual void epoch(SchedulerContext& ctx) = 0;
    virtual std::string_view name() const = 0;
    /// Publishes the policy's internal counters into `registry` under
    /// "scheduler.*" names. Called once at end of run; default is a no-op
    /// for policies with no internal state.
    virtual void export_telemetry(telemetry::MetricsRegistry& registry) const {
        (void)registry;
    }
    /// Checkpoint hooks. The caller opens (and closes) a JSON object and
    /// hands the writer positioned inside it; the policy writes its fields
    /// there (so the stateless default stays a valid empty object). State is
    /// only loaded back into a policy with the same name().
    virtual void save_state(telemetry::JsonWriter& w) const { (void)w; }
    virtual void load_state(const telemetry::JsonValue& doc) { (void)doc; }
};

/// How a policy chooses the V/F level of each test session.
enum class TestVfPolicy {
    RotateAll,  ///< cycle through every level per core (journal extension:
                ///< faults can be frequency-dependent, so cover all levels)
    MaxOnly,    ///< always the top level (shortest test, highest power)
    MinOnly,    ///< always the bottom level (longest test, lowest power)
};

const char* to_string(TestVfPolicy policy);

}  // namespace mcs
