#include "serve/query.hpp"

#include <array>
#include <cctype>
#include <memory>
#include <sstream>

#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/schema.hpp"
#include "util/require.hpp"

namespace mcs::serve {

namespace {

/// Policy knobs a fork may vary. Structural keys (geometry, node,
/// occupancy / arrival rate, task-graph shape, QoS mix, subsystem
/// enables) are absent on purpose: they change the meaning of the
/// captured state vectors and the restore would reject them anyway --
/// rejecting here gives the client a precise error instead of a
/// fingerprint mismatch.
constexpr std::array<std::string_view, 13> kAllowedOverrides = {
    "abort_tests",   "capping",      "criticality_mode",
    "criticality_threshold", "gate_delay_ms", "guard_band",
    "mapper",        "scheduler",    "segmented",
    "sessions",      "tdp_scale",    "test_period_ms",
    "vf_policy",
};

/// Request-body limits: a what-if query is a small flat object; anything
/// deeper or larger is hostile or confused.
constexpr telemetry::JsonLimits kBodyLimits{64 * 1024, 8};

std::string trim_copy(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (std::isspace(static_cast<unsigned char>(s[b])) != 0)) {
        ++b;
    }
    while (e > b &&
           (std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)) {
        --e;
    }
    return s.substr(b, e - b);
}

/// Canonical text of a scalar override value. Numbers go through
/// json_number (shortest round-trip form: 0.80, 8e-1 and 0.8 all
/// canonicalize to "0.8"); strings are whitespace-trimmed.
std::string canonical_value(const std::string& key,
                            const telemetry::JsonValue& v) {
    using Kind = telemetry::JsonValue::Kind;
    switch (v.kind()) {
        case Kind::Number: return telemetry::json_number(v.number());
        case Kind::String: return trim_copy(v.string());
        case Kind::Bool: return v.boolean() ? "true" : "false";
        default:
            MCS_REQUIRE(false, "override '" + key +
                                   "' must be a scalar (number, string, "
                                   "or boolean)");
            return {};
    }
}

WhatIfQuery parse_query_doc(const telemetry::JsonValue& doc) {
    telemetry::require_schema(doc, "mcs.whatif_query");
    WhatIfQuery q;
    MCS_REQUIRE(doc.has("snapshot"), "query needs a 'snapshot' member");
    q.snapshot = trim_copy(doc.at("snapshot").string());
    MCS_REQUIRE(!q.snapshot.empty(), "query 'snapshot' must not be empty");
    if (doc.has("overrides")) {
        for (const auto& [key, value] : doc.at("overrides").object()) {
            MCS_REQUIRE(is_allowed_override(key),
                        "override '" + key +
                            "' is not an allowed policy knob");
            q.overrides.emplace(key, canonical_value(key, value));
        }
    }
    if (doc.has("seconds")) {
        const double s = doc.at("seconds").number();
        MCS_REQUIRE(s > 0.0, "query 'seconds' must be positive");
        q.horizon = from_seconds(s);
    }
    for (const auto& [key, value] : doc.object()) {
        MCS_REQUIRE(key == "schema" || key == "snapshot" ||
                        key == "overrides" || key == "seconds",
                    "unknown query member '" + key + "'");
    }
    return q;
}

/// Whether the spec file a scenario entry's forks re-read still loads to
/// the captured scenario (trivially true for an entry without one).
bool scenario_spec_unchanged(const SnapshotEntry& entry) {
    if (!entry.doc.has("scenario")) {
        return true;
    }
    try {
        return scenario_fingerprint(load_scenario_file(entry.base.get_string(
                   "scenario", ""))) ==
               entry.doc.at("scenario").at("fingerprint").string();
    } catch (const RequireError&) {
        return false;  // removed or no longer a valid spec
    }
}

}  // namespace

bool is_allowed_override(std::string_view key) {
    for (const std::string_view allowed : kAllowedOverrides) {
        if (key == allowed) {
            return true;
        }
    }
    return false;
}

WhatIfQuery parse_whatif_query(std::string_view body) {
    return parse_query_doc(telemetry::parse_json(body, kBodyLimits));
}

std::string cache_key(const SnapshotEntry& entry, const WhatIfQuery& query) {
    // The entry's prefix pins the captured state and the fork's base
    // config, the tick count pins the horizon, and the sorted canonical
    // overrides pin the fork. '\x1f' (unit separator) cannot appear in
    // canonical values' config grammar, keeping the key injective.
    const SimDuration horizon =
        query.horizon.value_or(entry.captured_horizon);
    std::string key;
    key.reserve(256);
    key += entry.key_prefix;
    key += "|h=";
    key += std::to_string(horizon);
    for (const auto& [name, value] : query.overrides) {
        key += '\x1f';
        key += name;
        key += '=';
        key += value;
    }
    return key;
}

std::string compute_whatif(const SnapshotEntry& entry,
                           const WhatIfQuery& query) {
    const SimDuration horizon =
        query.horizon.value_or(entry.captured_horizon);
    MCS_REQUIRE(horizon > entry.captured_now,
                "query horizon " + std::to_string(horizon) +
                    " ns does not lie after the snapshot's capture point " +
                    std::to_string(entry.captured_now) + " ns");
    MCS_REQUIRE(horizon <= entry.captured_horizon,
                "query horizon " + std::to_string(horizon) +
                    " ns exceeds the captured horizon " +
                    std::to_string(entry.captured_horizon) +
                    " ns (the arrival trace ends there)");

    Config merged = entry.base;
    for (const auto& [key, value] : query.overrides) {
        merged.set(key, value);
    }
    // The base holds no restore= (the pool checks), so make_system only
    // builds and attaches the scenario; the fork restores the pooled
    // document itself.
    std::unique_ptr<ManycoreSystem> sys;
    try {
        sys = make_system(merged);
        RestoreOptions opts;
        opts.relax_config = true;  // forks vary policy knobs by design
        sys->restore(entry.doc, opts);
    } catch (const RequireError&) {
        if (!scenario_spec_unchanged(entry)) {
            throw ScenarioSpecChanged(
                "scenario spec changed since the pool loaded: " +
                entry.base.get_string("scenario", ""));
        }
        throw;
    }
    const RunMetrics m = sys->run(horizon);
    std::ostringstream os;
    telemetry::write_run_report(m, &sys->registry(), os);
    return os.str();
}

}  // namespace mcs::serve
