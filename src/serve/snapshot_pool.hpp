#pragma once

// The warmed-snapshot pool behind mcs_serve: every "mcs.snapshot" document
// named in the server configuration is parsed into memory once at startup,
// validated against its base run configuration (fail fast, not per
// request), and then shared read-only by all workers -- answering a
// what-if query only pays system construction + restore + run, never
// process startup or a snapshot read. (A fork of a scenario snapshot
// builds through make_system, which re-reads the small scenario spec.)
//
// Configuration grammar (key=value, the repo-wide Config format):
//   snapshot.<name> = <path to an mcs.snapshot JSON document>
//   snapshot.<name>.config = <path to that run's key=value config file>
// Run keys given alongside (occupancy=..., scheduler=..., ...) form the
// shared base configuration; a per-snapshot config file overrides it.
// <name> is [A-Za-z0-9_-]+ and is the handle queries use.

#include <string>
#include <vector>

#include "core/system.hpp"
#include "telemetry/json.hpp"
#include "util/config.hpp"

namespace mcs::serve {

/// One pool entry: the parsed snapshot document plus everything the query
/// layer needs without re-reading it (the snapshot part of every cache
/// key, the captured window for horizon validation, the base run config
/// forks derive from).
struct SnapshotEntry {
    std::string name;
    std::string path;
    telemetry::JsonValue doc;
    Config base;  ///< run config the snapshot was captured under
    std::string config_fingerprint;
    std::string structural_fingerprint;
    SimTime captured_now = 0;          ///< clock at capture
    SimDuration captured_horizon = 0;  ///< horizon of the captured run
    /// The snapshot part of every cache key, built once at load: the
    /// document's config and structural fingerprints, its capture point
    /// (clock, events executed and cancelled), the config fingerprint of
    /// `base` (forks run under it) and, when a scenario is attached, the
    /// scenario's fingerprint. Two checkpoints of one run differ here.
    std::string key_prefix;
};

class SnapshotPool {
public:
    /// Loads every `snapshot.<name>` entry of `serve_cfg`; `shared_base`
    /// holds the run keys shared by all snapshots. Each entry's base
    /// config must be able to fork the snapshot, or load throws
    /// RequireError naming it (a startup failure, not a per-request
    /// surprise):
    ///  * the base must rebuild the captured structure (structural
    ///    fingerprint);
    ///  * `scenario=` must be present exactly when the document carries a
    ///    scenario, and name a spec with the captured fingerprint;
    ///  * the base must not hold `restore=`, `checkpoint=` or
    ///    `checkpoint_at=` (forks restore from the pooled document).
    static SnapshotPool load(const Config& serve_cfg,
                             const Config& shared_base);

    const SnapshotEntry* find(const std::string& name) const;
    const std::vector<SnapshotEntry>& entries() const noexcept {
        return entries_;
    }
    std::size_t size() const noexcept { return entries_.size(); }

    /// Testing/bench hook: build a single-entry pool from an in-memory
    /// snapshot document.
    static SnapshotPool from_document(std::string name,
                                      telemetry::JsonValue doc,
                                      Config base);

private:
    static SnapshotEntry make_entry(std::string name, std::string path,
                                    telemetry::JsonValue doc, Config base);

    std::vector<SnapshotEntry> entries_;  ///< sorted by name
};

}  // namespace mcs::serve
