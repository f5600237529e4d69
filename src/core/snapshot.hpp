#pragma once

// Versioned run snapshots (family "mcs.snapshot"): capture a ManycoreSystem
// at an epoch boundary and resume it later -- in another process, under a
// different policy sweep -- with byte-identical continuation. The document
// is written through the telemetry JSON writer, so snapshot bytes are as
// deterministic as every other mcs.* artifact.
//
// Layout (one JSON object, schema "mcs.snapshot.v1"):
//   fingerprints  -- config/structural FNV-1a hashes guarding restore
//   substrate     -- clock, power budget, map RNG, chip cores, NoC,
//                    metrics, registry, tracer ring (when one is attached)
//   engines       -- workload / test / platform / scenario state
//   events        -- typed manifest of every pending simulator event
//
// Each stateful component owns its snapshot fields: it writes them in
// save_state(telemetry::JsonWriter&) and reads them back in
// load_state(const telemetry::JsonValue&), where it also checks every
// range and size it relies on, once, on the 64-bit value before any
// narrowing. The façade (snapshot.cpp) and the engines only lay out the
// document, one call per component. Codecs shared by several components
// (RNG state, latent fault slots, running statistics) sit beside the
// writer in telemetry/json.hpp.
//
// The std::function callbacks inside the event queue cannot be serialized;
// instead every event is scheduled with an EventRecord (kind + small args)
// that the queue keeps beside it, and capture writes the queue's pending
// records (kind + time + original sequence number + args). Restore
// re-schedules them through the owning engines in ascending
// original-sequence order, then checks the manifest against the restored
// state. Scheduling order determines sequence numbers, so ties at equal
// timestamps replay in the captured order and the continuation is
// event-for-event identical. See docs/checkpoint.md.

#include <string>

namespace mcs {

namespace telemetry {
class JsonWriter;
class JsonValue;
}  // namespace telemetry

struct SystemConfig;

/// Restore-time validation knobs.
struct RestoreOptions {
    /// Accept a snapshot whose *full* config fingerprint differs (seed,
    /// policy knobs, epochs). The *structural* fingerprint (chip geometry,
    /// workload model, suite, enabled subsystems) is always enforced: the
    /// fork-from-checkpoint campaign workflow varies policy knobs across
    /// replicas, but component state vectors must keep their meaning.
    bool relax_config = false;
};

/// FNV-1a hash (16 lowercase hex digits) over the structure-defining
/// configuration: chip geometry and node, the full workload model, the SBST
/// suite, and which optional subsystems exist. Two configs with equal
/// structural fingerprints have state vectors of identical shape/meaning.
std::string structural_fingerprint(const SystemConfig& cfg);

/// FNV-1a hash over the complete configuration (structural fields plus
/// seed, policy knobs, controller epochs, model constants). Equal full
/// fingerprints mean the restored run continues the captured run exactly.
std::string config_fingerprint(const SystemConfig& cfg);

}  // namespace mcs
