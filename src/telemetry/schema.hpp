#pragma once

// Single source of truth for mcs.* JSON schema versions.
//
// Every JSON document this repo emits carries a "schema" field like
// "mcs.run_report.v1". The version numbers live in tools/schemas.json; the
// build embeds that file here (see src/telemetry/CMakeLists.txt) and
// tools/check_bench.py reads it directly, so a future v2 bump edits exactly
// one file and every producer, loader, and gate fails loudly together
// instead of drifting apart.

#include <string>
#include <string_view>

namespace mcs::telemetry {

class JsonValue;

/// Versioned schema tag for a family, e.g. schema_tag("mcs.run_report")
/// == "mcs.run_report.v1". Throws RequireError for families missing from
/// tools/schemas.json.
std::string schema_tag(std::string_view family);

/// Validates that `doc` is a JSON object whose "schema" member equals
/// schema_tag(family); throws RequireError with a diagnostic naming both
/// tags otherwise.
void require_schema(const JsonValue& doc, std::string_view family);

}  // namespace mcs::telemetry
