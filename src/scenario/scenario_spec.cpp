#include "scenario/scenario_spec.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/schema.hpp"
#include "util/fnv1a.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

using telemetry::JsonValue;

constexpr std::string_view kSchemaFamily = "mcs.scenario";

/// Scenario documents are small; bound hostile input well below the
/// general JSON limits (the parser also serves the fuzz suite).
constexpr telemetry::JsonLimits kScenarioLimits{
    /*max_bytes=*/std::size_t{1} << 20, /*max_depth=*/8};

DirectiveKind parse_kind(const std::string& name) {
    if (name == "arrival-burst") return DirectiveKind::ArrivalBurst;
    if (name == "abort-tests") return DirectiveKind::AbortTests;
    if (name == "invalidate-progress") {
        return DirectiveKind::InvalidateProgress;
    }
    if (name == "inject-fault") return DirectiveKind::InjectFault;
    if (name == "inject-wear") return DirectiveKind::InjectWear;
    if (name == "set-budget") return DirectiveKind::SetBudget;
    if (name == "set-vf") return DirectiveKind::SetVf;
    MCS_REQUIRE(false, "scenario: unknown directive kind: " + name);
    return DirectiveKind::ArrivalBurst;
}

QosClass parse_qos(const std::string& name) {
    for (std::size_t q = 0; q < kQosClassCount; ++q) {
        if (name == to_string(static_cast<QosClass>(q))) {
            return static_cast<QosClass>(q);
        }
    }
    MCS_REQUIRE(false, "scenario: unknown QoS class: " + name);
    return QosClass::BestEffort;
}

FunctionalUnit parse_unit(const std::string& name) {
    for (std::size_t u = 0; u < kFunctionalUnitCount; ++u) {
        if (name == to_string(static_cast<FunctionalUnit>(u))) {
            return static_cast<FunctionalUnit>(u);
        }
    }
    MCS_REQUIRE(false, "scenario: unknown functional unit: " + name);
    return FunctionalUnit::Alu;
}

FaultKind parse_fault(const std::string& name) {
    for (int k = 0; k <= 2; ++k) {
        if (name == to_string(static_cast<FaultKind>(k))) {
            return static_cast<FaultKind>(k);
        }
    }
    MCS_REQUIRE(false, "scenario: unknown fault kind: " + name);
    return FaultKind::StuckAt;
}

std::vector<CoreId> parse_cores(const JsonValue& v) {
    const std::vector<std::uint64_t> ids = v.u64s();
    MCS_REQUIRE(!ids.empty(), "scenario: \"cores\" must be a non-empty array");
    std::vector<CoreId> cores;
    cores.reserve(ids.size());
    for (const std::uint64_t id : ids) {
        MCS_REQUIRE(id < kInvalidCore, "scenario: core id out of range");
        MCS_REQUIRE(cores.empty() || cores.back() < id,
                    "scenario: core ids must be strictly increasing");
        cores.push_back(static_cast<CoreId>(id));
    }
    return cores;
}

double parse_positive(const JsonValue& v, const char* what) {
    const double x = v.number();
    MCS_REQUIRE(x > 0.0,
                std::string("scenario: ") + what + " must be positive");
    return x;
}

/// Every key of `obj` must appear in `allowed` (which includes the common
/// keys); foreign fields are grammar errors, not silently ignored state.
void require_keys(const JsonValue& obj,
                  std::initializer_list<std::string_view> allowed) {
    for (const auto& [key, value] : obj.object()) {
        bool ok = false;
        for (const std::string_view a : allowed) {
            if (key == a) {
                ok = true;
                break;
            }
        }
        MCS_REQUIRE(ok, "scenario: unknown directive field: " + key);
    }
}

ScenarioDirective parse_directive(const JsonValue& obj) {
    MCS_REQUIRE(obj.has("at_us") && obj.has("kind"),
                "scenario: directive needs \"at_us\" and \"kind\"");
    ScenarioDirective d;
    const std::uint64_t at_us = obj.at("at_us").u64();
    MCS_REQUIRE(at_us > 0, "scenario: at_us must be positive");
    MCS_REQUIRE(at_us < static_cast<std::uint64_t>(-1) / kMicrosecond,
                "scenario: at_us overflows the clock");
    d.at = at_us * kMicrosecond;
    d.kind = parse_kind(obj.at("kind").string());
    switch (d.kind) {
        case DirectiveKind::ArrivalBurst:
            require_keys(obj, {"at_us", "kind", "apps", "tasks", "qos"});
            d.apps = obj.at("apps").u64();
            MCS_REQUIRE(d.apps >= 1 && d.apps <= 4096,
                        "scenario: apps must be in [1, 4096]");
            if (obj.has("tasks")) {
                const std::uint64_t tasks = obj.at("tasks").u64();
                MCS_REQUIRE(tasks >= 1 && tasks <= 4096,
                            "scenario: tasks must be in [1, 4096]");
                d.tasks = static_cast<int>(tasks);
            }
            if (obj.has("qos")) {
                d.qos = parse_qos(obj.at("qos").string());
            }
            break;
        case DirectiveKind::AbortTests:
        case DirectiveKind::InvalidateProgress:
            require_keys(obj, {"at_us", "kind", "cores"});
            if (obj.has("cores")) {
                d.cores = parse_cores(obj.at("cores"));
            }
            break;
        case DirectiveKind::InjectFault: {
            require_keys(obj, {"at_us", "kind", "core", "unit", "fault"});
            MCS_REQUIRE(obj.has("core") && obj.has("unit") &&
                            obj.has("fault"),
                        "scenario: inject-fault needs core/unit/fault");
            const std::uint64_t id = obj.at("core").u64();
            MCS_REQUIRE(id < kInvalidCore, "scenario: core id out of range");
            d.core = static_cast<CoreId>(id);
            d.unit = parse_unit(obj.at("unit").string());
            d.fault = parse_fault(obj.at("fault").string());
            break;
        }
        case DirectiveKind::InjectWear:
            require_keys(obj, {"at_us", "kind", "cores", "damage"});
            MCS_REQUIRE(obj.has("damage"),
                        "scenario: inject-wear needs damage");
            if (obj.has("cores")) {
                d.cores = parse_cores(obj.at("cores"));
            }
            d.damage = parse_positive(obj.at("damage"), "damage");
            break;
        case DirectiveKind::SetBudget:
            require_keys(obj, {"at_us", "kind", "tdp_scale"});
            MCS_REQUIRE(obj.has("tdp_scale"),
                        "scenario: set-budget needs tdp_scale");
            d.tdp_scale = parse_positive(obj.at("tdp_scale"), "tdp_scale");
            break;
        case DirectiveKind::SetVf: {
            require_keys(obj, {"at_us", "kind", "cores", "level"});
            MCS_REQUIRE(obj.has("level"), "scenario: set-vf needs level");
            if (obj.has("cores")) {
                d.cores = parse_cores(obj.at("cores"));
            }
            const std::uint64_t level = obj.at("level").u64();
            MCS_REQUIRE(level <= 64, "scenario: level out of range");
            d.vf_level = static_cast<int>(level);
            break;
        }
    }
    return d;
}

}  // namespace

const char* to_string(DirectiveKind kind) {
    switch (kind) {
        case DirectiveKind::ArrivalBurst: return "arrival-burst";
        case DirectiveKind::AbortTests: return "abort-tests";
        case DirectiveKind::InvalidateProgress: return "invalidate-progress";
        case DirectiveKind::InjectFault: return "inject-fault";
        case DirectiveKind::InjectWear: return "inject-wear";
        case DirectiveKind::SetBudget: return "set-budget";
        case DirectiveKind::SetVf: return "set-vf";
    }
    return "?";
}

ScenarioSpec parse_scenario(const telemetry::JsonValue& doc) {
    telemetry::require_schema(doc, kSchemaFamily);
    for (const auto& [key, value] : doc.object()) {
        MCS_REQUIRE(key == "schema" || key == "name" || key == "directives",
                    "scenario: unknown top-level key: " + key);
    }
    MCS_REQUIRE(doc.has("name") && doc.has("directives"),
                "scenario: needs \"name\" and \"directives\"");
    ScenarioSpec spec;
    spec.name = doc.at("name").string();
    MCS_REQUIRE(!spec.name.empty(), "scenario: needs a non-empty \"name\"");
    const auto& directives = doc.at("directives").array();
    MCS_REQUIRE(!directives.empty(),
                "scenario: needs a non-empty \"directives\" array");
    spec.directives.reserve(directives.size());
    SimTime prev = 0;
    for (const JsonValue& obj : directives) {
        ScenarioDirective d = parse_directive(obj);
        MCS_REQUIRE(d.at > prev,
                    "scenario: directive times must be strictly increasing");
        prev = d.at;
        spec.directives.push_back(std::move(d));
    }
    return spec;
}

ScenarioSpec parse_scenario_text(std::string_view text) {
    return parse_scenario(telemetry::parse_json(text, kScenarioLimits));
}

ScenarioSpec load_scenario_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    MCS_REQUIRE(in.is_open(), "cannot open scenario file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    MCS_REQUIRE(in.good() || in.eof(), "scenario read failed: " + path);
    return parse_scenario_text(text.str());
}

std::string canonical_scenario_json(const ScenarioSpec& spec) {
    std::ostringstream out;
    telemetry::JsonWriter w(out);
    w.begin_object();
    w.field("schema", telemetry::schema_tag(kSchemaFamily));
    w.field("name", spec.name);
    w.key("directives");
    w.begin_array();
    for (const ScenarioDirective& d : spec.directives) {
        w.begin_object();
        w.field("at_us", static_cast<std::uint64_t>(d.at / kMicrosecond));
        w.field("kind", to_string(d.kind));
        const auto write_cores = [&] {
            if (d.cores.empty()) {
                return;
            }
            w.key("cores");
            w.begin_array();
            for (const CoreId id : d.cores) {
                w.value(static_cast<std::uint64_t>(id));
            }
            w.end_array();
        };
        switch (d.kind) {
            case DirectiveKind::ArrivalBurst:
                w.field("apps", d.apps);
                if (d.tasks != 0) {
                    w.field("tasks", static_cast<std::int64_t>(d.tasks));
                }
                if (d.qos != QosClass::BestEffort) {
                    w.field("qos", to_string(d.qos));
                }
                break;
            case DirectiveKind::AbortTests:
            case DirectiveKind::InvalidateProgress:
                write_cores();
                break;
            case DirectiveKind::InjectFault:
                w.field("core", static_cast<std::uint64_t>(d.core));
                w.field("unit", to_string(d.unit));
                w.field("fault", to_string(d.fault));
                break;
            case DirectiveKind::InjectWear:
                write_cores();
                w.field("damage", d.damage);
                break;
            case DirectiveKind::SetBudget:
                w.field("tdp_scale", d.tdp_scale);
                break;
            case DirectiveKind::SetVf:
                write_cores();
                w.field("level", static_cast<std::int64_t>(d.vf_level));
                break;
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return out.str();
}

std::uint64_t scenario_fingerprint_u64(const ScenarioSpec& spec) {
    return fnv1a64(canonical_scenario_json(spec));
}

std::string scenario_fingerprint(const ScenarioSpec& spec) {
    Fnv1a h;
    h.bytes(canonical_scenario_json(spec));
    return h.hex();
}

}  // namespace mcs
