#pragma once

#include "core/system.hpp"
#include "util/config.hpp"

namespace mcs {

/// Reads and parses an "mcs.snapshot" document from `path` (schema and
/// fingerprints are checked by ManycoreSystem::restore, not here).
telemetry::JsonValue load_snapshot_file(const std::string& path);

/// If `cfg` carries `restore=<path>`, rebuilds `sys` from that snapshot
/// (`restore_relax=true` relaxes the full-config fingerprint check so a
/// fork may vary policy knobs); otherwise does nothing. Call after
/// attaching the tracer so the captured trace ring reloads into it.
void apply_restore(ManycoreSystem& sys, const Config& cfg);

}  // namespace mcs
