#pragma once

// Declarative scenario specifications (schema family "mcs.scenario"): a
// named, time-ordered list of directives that perturb a run mid-flight --
// arrival bursts, forced test aborts / progress invalidations, fault and
// wear injections, power-budget retargeting and forced DVFS moves. A spec
// is pure data; src/scenario/scenario_player.hpp compiles it into queued
// events over the engine seams so replays are deterministic and snapshots
// carry the replay position.
//
// The grammar is strict by design: unknown keys, unordered times, and
// malformed fields are RequireErrors, never best-effort guesses, because
// the same parser also serves the corpus gate and the fuzz suite.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "app/workload.hpp"
#include "arch/core.hpp"
#include "sbst/fault_model.hpp"
#include "sim/time.hpp"

namespace mcs::telemetry {
class JsonValue;
}  // namespace mcs::telemetry

namespace mcs {

enum class DirectiveKind {
    ArrivalBurst,        ///< inject + arrive a batch of applications now
    AbortTests,          ///< abort in-flight SBST sessions
    InvalidateProgress,  ///< drop saved segmented-suite progress
    InjectFault,         ///< plant one specific latent fault
    InjectWear,          ///< add wear damage to cores
    SetBudget,           ///< retarget the TDP (scale of the config TDP)
    SetVf,               ///< force Idle/Busy cores to a DVFS level
};

const char* to_string(DirectiveKind kind);

/// One timed directive. Only the fields of the directive's kind are
/// meaningful; parse_scenario rejects specs that set foreign fields.
struct ScenarioDirective {
    DirectiveKind kind = DirectiveKind::ArrivalBurst;
    SimTime at = 0;  ///< absolute firing time ("at_us" * 1 us)

    // arrival_burst
    std::uint64_t apps = 0;  ///< batch size (>= 1)
    int tasks = 0;           ///< fixed tasks per app; 0 = config's range
    QosClass qos = QosClass::BestEffort;

    // abort_tests / invalidate_progress / inject_wear / set_vf:
    // strictly-increasing core ids; empty = every core.
    std::vector<CoreId> cores;

    // inject_fault
    CoreId core = 0;
    FunctionalUnit unit = FunctionalUnit::Alu;
    FaultKind fault = FaultKind::StuckAt;

    // inject_wear
    double damage = 0.0;

    // set_budget
    double tdp_scale = 1.0;

    // set_vf
    int vf_level = 0;
};

struct ScenarioSpec {
    std::string name;
    std::vector<ScenarioDirective> directives;
};

/// Parses and validates a scenario document. Throws RequireError on any
/// deviation: wrong schema tag, unknown keys (top-level or per directive),
/// empty or non-ascending "at_us" times, missing/foreign/ill-typed fields,
/// non-ascending core lists.
ScenarioSpec parse_scenario(const telemetry::JsonValue& doc);

/// parse_scenario over raw text, through the hardened JSON layer with
/// scenario-sized limits (specs are small; a multi-megabyte or deeply
/// nested document is rejected before parsing).
ScenarioSpec parse_scenario_text(std::string_view text);

/// Reads and parses a scenario file.
ScenarioSpec load_scenario_file(const std::string& path);

/// Canonical serialization: schema tag, name, then directives with their
/// fields in fixed order and defaulted optionals omitted. Canonical bytes
/// round-trip exactly: parse_scenario_text(canonical_scenario_json(s))
/// re-canonicalizes to the same bytes.
std::string canonical_scenario_json(const ScenarioSpec& spec);

/// FNV-1a (16 lowercase hex digits) over the canonical bytes: the spec's
/// identity. Snapshots carry it so a checkpointed scenario run can only be
/// resumed under the same spec.
std::string scenario_fingerprint(const ScenarioSpec& spec);

/// The fingerprint as the raw 64-bit hash (per-directive RNG stream root).
std::uint64_t scenario_fingerprint_u64(const ScenarioSpec& spec);

}  // namespace mcs
