#pragma once

// Versioned run snapshots (family "mcs.snapshot"): capture a ManycoreSystem
// at an epoch boundary and resume it later -- in another process, under a
// different policy sweep -- with byte-identical continuation. The document
// is written through the telemetry JSON writer, so snapshot bytes are as
// deterministic as every other mcs.* artifact.
//
// Layout (one JSON object, schema "mcs.snapshot.v1"):
//   fingerprints  -- config/structural FNV-1a hashes guarding restore
//   substrate     -- clock, chip cores, NoC, budget, map RNG, metrics,
//                    registry, tracer ring (when one is attached)
//   engines       -- workload / test / platform component state
//   events        -- typed manifest of every pending simulator event
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

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

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

/// Shared JSON helpers for the engine save/load implementations: exact
/// round-trips for RNG engine state (4 x u64) and the per-entity latent
/// fault slots of the injector components (-1 encodes "no latent fault").
namespace snapshot {

void write_rng(telemetry::JsonWriter& w, std::string_view key,
               const Rng& rng);
Rng read_rng(const telemetry::JsonValue& doc, const std::string& key);

void write_latent_slots(telemetry::JsonWriter& w, std::string_view key,
                        const std::vector<std::optional<std::size_t>>& slots);
/// Every stored slot must index into a history of `history_size` entries.
std::vector<std::optional<std::size_t>> read_latent_slots(
    const telemetry::JsonValue& doc, const std::string& key,
    std::size_t history_size);

}  // namespace snapshot

}  // namespace mcs
