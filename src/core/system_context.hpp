#pragma once

// SystemContext: the shared substrate the engine components compose over.
// It owns what every engine needs to see (chip, NoC, clock/simulator,
// power budget, SBST suite, RNG streams, metrics accumulators, observer
// hub) and carries non-owning registration slots for the components each
// engine contributes (power manager, thermal, scheduler state, ...)
// so engines can reach one another without the façade brokering every
// call. Ownership rule: values here are owned by the context (and live as
// long as the ManycoreSystem façade); pointers are registered by the
// engine that owns the component and stay valid for the system's lifetime.

#include "app/workload.hpp"
#include "arch/chip.hpp"
#include "core/metrics.hpp"
#include "core/system_observer.hpp"
#include "noc/network.hpp"
#include "power/power_budget.hpp"
#include "sbst/test_suite.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/rng.hpp"

namespace mcs {

struct SystemConfig;
class PowerModel;
class PowerManager;
class ThermalModel;
class FaultInjector;
class LinkTester;
class IdlePredictor;
class WorkloadEngine;
class TestEngine;
class PlatformEngine;

namespace telemetry {
class Tracer;
}  // namespace telemetry

struct SystemContext {
    /// Builds the substrate from a validated configuration. `cfg` must
    /// outlive the context (the façade owns both).
    explicit SystemContext(const SystemConfig& cfg);
    SystemContext(const SystemContext&) = delete;
    SystemContext& operator=(const SystemContext&) = delete;

    const SystemConfig& cfg;

    // --- owned substrate ---
    Simulator sim;
    Chip chip;
    Network noc;
    TestSuite suite;
    PowerBudget budget;
    RunMetrics metrics;
    telemetry::MetricsRegistry registry;
    /// The run's event tracer (optional, non-owning): the one slot the
    /// observer hub and the power manager read. Declared before the hub,
    /// which binds a reference to it.
    telemetry::Tracer* tracer = nullptr;
    SystemObserverHub observers;
    /// Dedicated RNG stream for mapping decisions (seeded off cfg.seed so
    /// mapper randomness is independent of workload/fault streams).
    Rng map_rng;
    /// When set, capping and admission ignore QoS classes.
    bool priority_blind = false;

    // --- components registered by PlatformEngine ---
    PowerModel* power_model = nullptr;
    PowerManager* power_mgr = nullptr;
    ThermalModel* thermal = nullptr;
    FaultInjector* faults = nullptr;  ///< null unless fault injection is on

    // --- components registered by WorkloadEngine ---
    IdlePredictor* idle_predictor = nullptr;

    // --- components registered by TestEngine ---
    LinkTester* link_tester = nullptr;  ///< null unless NoC testing is on

    // --- engine cross-links (registered by each engine's constructor) ---
    WorkloadEngine* workload = nullptr;
    TestEngine* test = nullptr;
    PlatformEngine* platform = nullptr;
};

}  // namespace mcs
