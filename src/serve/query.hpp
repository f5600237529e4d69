#pragma once

// The what-if query layer: one query names a warmed snapshot, a set of
// policy overrides (the paper's design-space axes: scheduler choice, power
// budget via tdp_scale, capping mode, guard band, ...) and an optional
// shorter horizon, and evaluates to the deterministic mcs.run_report.v1
// bytes of the forked run.
//
// Canonicalization is the contract that makes the result cache sound: two
// queries that mean the same thing -- overrides in any order, numbers
// spelled 0.80 vs 8e-1, strings with stray whitespace -- canonicalize to
// the same cache key, and the report bytes are a pure function of
// (captured state, base config, canonical overrides, horizon), so a cache
// hit is byte-identical to a fresh computation.
//
// Request schema ("mcs.whatif_query.v1", POST /whatif):
//   {"schema":"mcs.whatif_query.v1","snapshot":"<name>",
//    "overrides":{"scheduler":"greedy","tdp_scale":0.8,...},
//    "seconds":1.5}
// `overrides` (optional) admits only whitelisted policy keys -- structural
// keys would invalidate the captured state and are rejected up front.
// `seconds` (optional) must land in (captured_now, captured_horizon];
// omitted means the captured horizon.

#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/snapshot_pool.hpp"
#include "sim/time.hpp"

namespace mcs::serve {

/// A parsed, canonicalized query. `overrides` values are in canonical
/// text form (shortest round-trip numbers, trimmed strings, true/false).
struct WhatIfQuery {
    std::string snapshot;
    std::map<std::string, std::string> overrides;
    std::optional<SimDuration> horizon;
};

/// Policy knobs a fork may vary: none of them enters the structural
/// fingerprint a relaxed restore still checks. Structural keys (geometry,
/// node, occupancy / arrival rate, task-graph shape, QoS mix, subsystem
/// enables, segmented sessions) are absent on purpose: they change the
/// meaning of the captured state vectors and the restore would reject
/// them anyway -- rejecting here gives the client a precise error instead
/// of a fingerprint mismatch.
inline constexpr std::array<std::string_view, 11> kAllowedOverrides = {
    "abort_tests",      "capping",   "criticality_mode",
    "criticality_threshold", "gate_delay_ms", "guard_band",
    "mapper",           "scheduler", "tdp_scale",
    "test_period_ms",   "vf_policy",
};

/// Whether `key` is one of kAllowedOverrides.
bool is_allowed_override(std::string_view key);

/// Parses and canonicalizes a request body. Throws RequireError on
/// malformed JSON (tight depth/size limits -- this is network input), a
/// wrong/missing schema tag, non-whitelisted override keys, or
/// non-scalar override values.
WhatIfQuery parse_whatif_query(std::string_view body);

/// Deterministic cache key: the entry's key_prefix (captured state, base
/// config, scenario), the resolved horizon in ticks, and the canonical
/// override list. Equal keys imply byte-identical responses.
std::string cache_key(const SnapshotEntry& entry, const WhatIfQuery& query);

/// Thrown by compute_whatif when a scenario snapshot's fork fails because
/// the spec file it re-reads no longer holds the captured scenario (edited
/// or removed since the pool loaded). That is a state of the host, not an
/// answer to the query: the service layer maps it to an uncached 503.
class ScenarioSpecChanged : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Evaluates the query against the entry: builds the base config plus the
/// overrides through make_system (which attaches the entry's scenario),
/// forks the warmed snapshot under the overridden policy (restore_relax
/// semantics) and runs it to the requested horizon. Returns the
/// mcs.run_report.v1 bytes. Throws RequireError for an invalid horizon or
/// a structurally incompatible override (both map to HTTP 400 in the
/// service layer), and ScenarioSpecChanged as described above.
std::string compute_whatif(const SnapshotEntry& entry,
                           const WhatIfQuery& query);

}  // namespace mcs::serve
