#pragma once

// ScenarioDriver: the façade-side seam for declarative timed-directive
// scenarios (src/scenario/). The core library knows only this interface;
// the concrete player (spec parsing, directive dispatch) lives one layer
// up so core/ never depends on the scenario grammar. A driver attached via
// ManycoreSystem::attach_scenario participates in the run like any other
// engine: run() calls begin() once, its directive events carry the record
// the snapshot writer lists (kind "scenario", a = the directive the event
// will apply), the writer asks it for its state object, and restore
// replays its pending directive event and re-applies its side effects in
// the documented order (see snapshot.cpp).

#include <cstdint>

#include "core/snapshot.hpp"
#include "sim/time.hpp"

namespace mcs {

class ManycoreSystem;

class ScenarioDriver {
public:
    virtual ~ScenarioDriver() = default;

    /// Called by attach_scenario: the driver keeps the reference for the
    /// system's lifetime (the façade owns the driver).
    virtual void bind(ManycoreSystem& sys) = 0;

    /// Start of a fresh (non-restored) run: validate the directive times
    /// against `horizon` and schedule the first directive event.
    virtual void begin(SimDuration horizon) = 0;

    /// Complete driver state as one JSON object (identity fingerprint plus
    /// replay position); loaded back only into a driver with a matching
    /// fingerprint.
    virtual void save_state(telemetry::JsonWriter& w) const = 0;
    virtual void load_state(const telemetry::JsonValue& doc) = 0;

    /// Restore step A (after the arrival trace regenerated, before the
    /// workload engine's runtime state loads): re-append the applications
    /// injected by already-applied directives, in their original order, so
    /// the per-app state vectors line up.
    virtual void reinject_restored() = 0;

    /// Restore step B (after every engine loaded): re-apply applied side
    /// effects that live outside the persisted state (the power budget's
    /// TDP is configuration-derived, so a mid-run budget change must be
    /// replayed onto the restored budget).
    virtual void reapply_restored() = 0;

    /// Restore step C (manifest replay): re-schedule the pending directive
    /// event exactly where the captured queue had it, with its record.
    virtual void schedule_restored_directive(std::uint64_t index,
                                             SimTime when) = 0;

    /// Whether a directive is still to fire. A driver chains its
    /// directives, so it then has exactly one pending directive event and
    /// otherwise none; restore checks the replayed manifest against this.
    virtual bool directive_due() const = 0;
};

}  // namespace mcs
