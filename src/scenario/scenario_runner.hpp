#pragma once

// The one system factory: every path that runs a system from key=value
// configuration (mcs_sim, campaign replicas, what-if forks, the examples,
// the serve benches) builds it here, so `scenario=` and `restore=` mean
// the same thing everywhere and the build order lives in one place.

#include <memory>

#include "core/system.hpp"
#include "util/config.hpp"

namespace mcs {

/// Constructs a ManycoreSystem from generic key=value configuration
/// (core/config_bridge.hpp keys), then, in this order:
///   1. attaches `tracer` when non-null (before restore, so a snapshot's
///      captured trace ring reloads into it);
///   2. attaches a ScenarioPlayer for `scenario=<path>` when present
///      (before restore, so a snapshot captured mid-scenario reloads its
///      replay position);
///   3. restores from `restore=<path>` when present (`restore_relax=true`
///      relaxes the full-config fingerprint check so a fork may vary
///      policy knobs).
/// The build path touches no global mutable state, so factories may run
/// concurrently from any number of threads (campaign replicas, serve
/// workers).
std::unique_ptr<ManycoreSystem> make_system(
    const Config& cfg, telemetry::Tracer* tracer = nullptr);

/// The horizon a key=value run of `sys` goes to: `seconds=` when set, else
/// the captured horizon when `sys` was restored, else `default_seconds`.
SimDuration run_horizon(const Config& cfg, const ManycoreSystem& sys,
                        double default_seconds);

/// Builds and runs one system for `horizon` simulated time and returns its
/// metrics; the campaign runner's default replica body.
RunMetrics run_system(const Config& cfg, SimDuration horizon);

}  // namespace mcs
