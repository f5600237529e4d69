#pragma once

#include <string>

#include "telemetry/json.hpp"

namespace mcs {

/// Reads and parses an "mcs.snapshot" document from `path` (schema and
/// fingerprints are checked by ManycoreSystem::restore, not here). Systems
/// are built from key=value configuration by make_system
/// (scenario/scenario_runner.hpp).
telemetry::JsonValue load_snapshot_file(const std::string& path);

}  // namespace mcs
