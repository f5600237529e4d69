#pragma once

// Config-level glue for scenarios: the `scenario=<path>` key attaches a
// ScenarioPlayer to a system built from the same key=value configuration
// that drives everything else, so scenarios compose with --sweep cells,
// restore= forks, and the serve/bench harnesses without new plumbing.

#include <memory>

#include "core/system_factory.hpp"

namespace mcs {

/// If `cfg` carries `scenario=<path>`, loads the spec and attaches a
/// player to `sys`; otherwise does nothing. Must be called before
/// restore()/run() (the façade enforces this). Returns whether a scenario
/// was attached.
bool attach_scenario_from(ManycoreSystem& sys, const Config& cfg);

/// Constructs a fresh ManycoreSystem from generic key=value configuration
/// (core/config_bridge.hpp keys), attaches `scenario=<path>` when present,
/// then restores from `restore=<path>` when present (attach first, so a
/// snapshot captured mid-scenario can reload its replay position). The
/// build path touches no global mutable state, so factories may run
/// concurrently from any number of threads -- this is the campaign
/// runner's default replica body (fork-from-checkpoint sweeps pass the
/// same snapshot to every cell).
std::unique_ptr<ManycoreSystem> make_system(const Config& cfg);

/// Builds and runs one system for `horizon` simulated time and returns its
/// metrics; the convenience form of make_system for one-shot replicas.
RunMetrics run_system(const Config& cfg, SimDuration horizon);

}  // namespace mcs
