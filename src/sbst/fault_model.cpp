#include "sbst/fault_model.hpp"

#include <utility>

#include "util/require.hpp"

namespace mcs {

const char* to_string(FaultKind kind) {
    switch (kind) {
        case FaultKind::StuckAt: return "stuck-at";
        case FaultKind::Delay: return "delay";
        case FaultKind::LowVoltage: return "low-voltage";
    }
    return "?";
}

FaultInjector::FaultInjector(std::size_t core_count, FaultModelParams params,
                             std::uint64_t seed)
    : params_(params), rng_(seed), latent_(core_count) {
    MCS_REQUIRE(core_count > 0, "fault injector needs cores");
    MCS_REQUIRE(params_.base_rate_per_core_s >= 0.0,
                "fault rate must be non-negative");
    MCS_REQUIRE(params_.task_corruption_prob >= 0.0 &&
                    params_.task_corruption_prob <= 1.0,
                "corruption probability must be in [0,1]");
    MCS_REQUIRE(params_.stuck_at_weight >= 0.0 &&
                    params_.delay_weight >= 0.0 &&
                    params_.low_voltage_weight >= 0.0,
                "fault-class weights must be non-negative");
    MCS_REQUIRE(params_.stuck_at_weight + params_.delay_weight +
                        params_.low_voltage_weight > 0.0,
                "at least one fault-class weight must be positive");
    MCS_REQUIRE(params_.delay_visible_levels >= 1 &&
                    params_.lowv_visible_levels >= 1,
                "visible-level windows must be at least 1");
}

std::vector<CoreId> FaultInjector::step(SimTime now, double dt_s,
                                        const Chip& chip,
                                        std::span<const double> accel) {
    MCS_REQUIRE(chip.core_count() == latent_.size(),
                "chip size does not match fault injector");
    MCS_REQUIRE(dt_s >= 0.0, "negative fault step");
    std::vector<CoreId> fresh;
    if (params_.base_rate_per_core_s <= 0.0 || dt_s <= 0.0) {
        return fresh;
    }
    for (const Core& c : chip.cores()) {
        if (latent_[c.id()].has_value()) {
            continue;  // one latent fault per core
        }
        if (c.state() == CoreState::Dark || c.state() == CoreState::Faulty) {
            continue;  // no wear while gated / decommissioned
        }
        const double a = accel.empty() ? 1.0 : accel[c.id()];
        const double p = params_.base_rate_per_core_s * a * dt_s;
        if (rng_.bernoulli(p)) {
            Fault f;
            f.core = c.id();
            f.unit = static_cast<FunctionalUnit>(
                rng_.index(kFunctionalUnitCount));
            f.kind = draw_kind();
            f.injected = now;
            latent_[c.id()] = history_.size();
            history_.push_back(f);
            fresh.push_back(c.id());
        }
    }
    return fresh;
}

bool FaultInjector::force_fault(CoreId core, FunctionalUnit unit,
                                FaultKind kind, SimTime now) {
    MCS_REQUIRE(core < latent_.size(), "core id out of range");
    if (latent_[core].has_value()) {
        return false;  // one latent fault per core, as in step()
    }
    Fault f;
    f.core = core;
    f.unit = unit;
    f.kind = kind;
    f.injected = now;
    latent_[core] = history_.size();
    history_.push_back(f);
    return true;
}

bool FaultInjector::has_latent_fault(CoreId core) const {
    MCS_REQUIRE(core < latent_.size(), "core id out of range");
    return latent_[core].has_value();
}

std::optional<Fault> FaultInjector::latent_fault(CoreId core) const {
    MCS_REQUIRE(core < latent_.size(), "core id out of range");
    if (!latent_[core].has_value()) {
        return std::nullopt;
    }
    return history_[*latent_[core]];
}

FaultKind FaultInjector::draw_kind() {
    const double weights[] = {params_.stuck_at_weight, params_.delay_weight,
                              params_.low_voltage_weight};
    return static_cast<FaultKind>(rng_.categorical(weights));
}

bool FaultInjector::manifests_at(FaultKind kind, int vf_level,
                                 int vf_level_count) const {
    MCS_REQUIRE(vf_level >= 0 && vf_level < vf_level_count,
                "VF level out of range");
    switch (kind) {
        case FaultKind::StuckAt:
            return true;
        case FaultKind::Delay:
            return vf_level >= vf_level_count - params_.delay_visible_levels;
        case FaultKind::LowVoltage:
            return vf_level < params_.lowv_visible_levels;
    }
    return true;
}

std::optional<Fault> FaultInjector::attempt_detection(CoreId core, SimTime now,
                                                      const TestSuite& suite,
                                                      int vf_level,
                                                      int vf_level_count) {
    MCS_REQUIRE(core < latent_.size(), "core id out of range");
    auto& slot = latent_[core];
    if (!slot.has_value()) {
        return std::nullopt;
    }
    Fault& fault = history_[*slot];
    if (!manifests_at(fault.kind, vf_level, vf_level_count)) {
        // Not an escape of the routines: the operating point simply cannot
        // expose this fault class. Rotation across levels will.
        return std::nullopt;
    }
    const double coverage = suite.coverage_of(fault.unit);
    if (rng_.bernoulli(coverage)) {
        fault.detected = true;
        fault.detected_at = now;
        ++detected_;
        slot.reset();
        return fault;
    }
    ++escaped_tests_;
    return std::nullopt;
}

std::optional<Fault> FaultInjector::attempt_detection(CoreId core, SimTime now,
                                                      const TestSuite& suite) {
    return attempt_detection(core, now, suite, 0, 1);
}

bool FaultInjector::roll_task_corruption(CoreId core) {
    MCS_REQUIRE(core < latent_.size(), "core id out of range");
    if (!latent_[core].has_value()) {
        return false;
    }
    if (rng_.bernoulli(params_.task_corruption_prob)) {
        ++corrupted_;
        return true;
    }
    return false;
}


void FaultInjector::save_state(telemetry::JsonWriter& w) const {
    telemetry::write_rng(w, "rng", rng_);
    telemetry::write_latent_slots(w, "latent", latent_);
    w.key("history");
    w.begin_array();
    for (const Fault& f : history_) {
        w.begin_object();
        w.field("core", static_cast<std::uint64_t>(f.core));
        w.field("unit", static_cast<std::int64_t>(f.unit));
        w.field("kind", static_cast<std::int64_t>(f.kind));
        w.field("injected", f.injected);
        w.field("detected", f.detected);
        w.field("detected_at", f.detected_at);
        w.end_object();
    }
    w.end_array();
    w.field("detected", detected_);
    w.field("escaped", escaped_tests_);
    w.field("corrupted", corrupted_);
}

void FaultInjector::load_state(const telemetry::JsonValue& doc) {
    std::vector<Fault> history;
    for (const auto& f : doc.at("history").array()) {
        const std::uint64_t core = f.at("core").u64();
        const std::int64_t unit = f.at("unit").i64();
        const std::int64_t kind = f.at("kind").i64();
        MCS_REQUIRE(core < latent_.size(),
                    "fault injector state: fault core out of range");
        MCS_REQUIRE(unit >= 0 && static_cast<std::uint64_t>(unit) <
                                     kFunctionalUnitCount,
                    "fault injector state: fault unit out of range");
        MCS_REQUIRE(kind >= 0 &&
                        kind <= static_cast<std::int64_t>(
                                    FaultKind::LowVoltage),
                    "fault injector state: fault kind out of range");
        history.push_back(Fault{
            static_cast<CoreId>(core), static_cast<FunctionalUnit>(unit),
            static_cast<FaultKind>(kind), f.at("injected").u64(),
            f.at("detected").boolean(), f.at("detected_at").u64()});
    }
    auto latent = telemetry::read_latent_slots(doc, "latent", history.size());
    MCS_REQUIRE(latent.size() == latent_.size(),
                "fault injector state: core count mismatch");
    rng_ = telemetry::read_rng(doc, "rng");
    latent_ = std::move(latent);
    history_ = std::move(history);
    detected_ = doc.at("detected").u64();
    escaped_tests_ = doc.at("escaped").u64();
    corrupted_ = doc.at("corrupted").u64();
}

}  // namespace mcs
