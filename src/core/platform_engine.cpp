#include "core/platform_engine.hpp"

#include <algorithm>

#include "core/system.hpp"
#include "core/test_engine.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

ActivityFactors activity_with_suite(ActivityFactors base,
                                    const TestSuite& suite) {
    // Keep the power model's test activity consistent with the SBST library
    // actually executed.
    base.test = suite.mean_activity();
    return base;
}

}  // namespace

PlatformEngine::PlatformEngine(SystemContext& ctx)
    : ctx_(ctx),
      power_model_(ctx.chip.tech(), ctx.chip.vf_table(),
                   activity_with_suite(ctx.cfg.activity, ctx.suite)),
      power_mgr_(ctx.chip, power_model_, ctx.budget, ctx.registry,
                 ctx.cfg.power),
      thermal_(ctx.cfg.width, ctx.cfg.height, ctx.cfg.thermal),
      aging_(ctx.chip.core_count(), ctx.cfg.aging),
      crit_eval_(ctx.cfg.criticality),
      criticality_(ctx.chip.core_count(), 0.0),
      power_w_(ctx.chip.core_count(), 0.0),
      power_key_(ctx.chip.core_count()) {
    if (ctx_.cfg.enable_fault_injection) {
        faults_.emplace(ctx_.chip.core_count(), ctx_.cfg.faults,
                        ctx_.cfg.seed ^ 0x94d049bb133111ebULL);
    }
    ctx_.power_model = &power_model_;
    ctx_.power_mgr = &power_mgr_;
    ctx_.thermal = &thermal_;
    ctx_.faults = faults_ ? &*faults_ : nullptr;
    ctx_.platform = this;
}

const std::vector<double>& PlatformEngine::refresh_criticality(SimTime now) {
    crit_eval_.evaluate_chip_into(ctx_.chip, now, aging_.damage_all(),
                                  criticality_);
    return criticality_;
}

double PlatformEngine::noc_power_w() const {
    return ctx_.noc.routers_idle_power_w() +
           static_cast<double>(ctx_.test->link_tests_running()) *
               ctx_.cfg.noc_test.test_power_w;
}

void PlatformEngine::accumulate_energy(SimTime now) {
    MCS_REQUIRE(now >= energy_clock_, "energy clock going backwards");
    // Refreshed even for an empty interval: power_epoch reads the buffer
    // as the chip-power measurement right after this call.
    fill_power();
    const double dt_s = to_seconds(now - energy_clock_);
    energy_clock_ = now;
    if (dt_s <= 0.0) {
        return;
    }
    link_test_energy_j_ +=
        static_cast<double>(ctx_.test->link_tests_running()) *
        ctx_.cfg.noc_test.test_power_w * dt_s;
    for (const Core& c : ctx_.chip.cores()) {
        const double p = power_w_[c.id()];
        switch (c.state()) {
            case CoreState::Busy:
                ctx_.metrics.energy_busy_j += p * dt_s;
                break;
            case CoreState::Testing:
                ctx_.metrics.energy_test_j += p * dt_s;
                break;
            default:
                ctx_.metrics.energy_idle_j += p * dt_s;
                break;
        }
    }
}

void PlatformEngine::fill_power() {
    // The key comparison is the whole invalidation. States and levels may
    // change between any two fills; temperatures change only in
    // ThermalModel::step and load_state, so most fills evaluate no exp.
    // Temperatures compare exactly: -0.0 and +0.0 give the same bits, and a
    // NaN never matches, so it is evaluated every time.
    const std::span<const double> temps = thermal_.temps_c();
    for (const Core& c : ctx_.chip.cores()) {
        PowerKey& key = power_key_[c.id()];
        const double temp = temps[c.id()];
        if (key.state != c.state() || key.vf_level != c.vf_level() ||
            key.temp_c != temp) {
            key = PowerKey{c.state(), c.vf_level(), temp};
            power_w_[c.id()] =
                power_model_.core_power_w(key.state, key.vf_level, temp);
        }
    }
}

void PlatformEngine::power_epoch() {
    accumulate_energy(ctx_.sim.now());
    ctx_.noc.roll_window();
    // Chip power for the capping loop: the buffer accumulate_energy just
    // filled, summed in core order, plus the NoC term.
    double chip_w = 0.0;
    for (const double p : power_w_) {
        chip_w += p;
    }
    chip_w += noc_power_w();
    power_mgr_.control_epoch(ctx_.sim.now(), chip_w, thermal_.temps_c());
}

void PlatformEngine::thermal_epoch() {
    fill_power();
    thermal_.step(power_w_, to_seconds(ctx_.cfg.thermal_epoch));
    peak_temp_c_ = std::max(peak_temp_c_, thermal_.max_temp_c());
}

void PlatformEngine::wear_epoch() {
    const SimTime now = ctx_.sim.now();
    ctx_.chip.checkpoint_all(now);
    for (const Core& c : ctx_.chip.cores()) {
        ++state_samples_;
        dark_samples_ += c.state() == CoreState::Dark ? 1 : 0;
        testing_samples_ += c.is_testing() ? 1 : 0;
        reserved_samples_ += c.reserved() ? 1 : 0;
    }
    aging_.update(now, ctx_.chip, thermal_.temps_c());
    if (faults_) {
        accel_buf_.resize(ctx_.chip.core_count());
        for (std::size_t i = 0; i < accel_buf_.size(); ++i) {
            accel_buf_[i] = aging_.fault_acceleration(static_cast<CoreId>(i));
        }
        const auto fresh = faults_->step(
            now, to_seconds(ctx_.cfg.wear_epoch), ctx_.chip, accel_buf_);
        // A new fault invalidates any partial segmented-suite progress on
        // the core: those routines ran on a then-healthy core.
        for (CoreId id : fresh) {
            ctx_.test->invalidate_progress(id);
        }
    }
    ctx_.test->wear_step(now, to_seconds(ctx_.cfg.wear_epoch));
}

bool PlatformEngine::force_fault(CoreId core, FunctionalUnit unit,
                                 FaultKind kind) {
    if (!faults_) {
        return false;
    }
    if (!faults_->force_fault(core, unit, kind, ctx_.sim.now())) {
        return false;
    }
    // Same consequence as a stochastic arrival: partial segmented-suite
    // progress ran on a then-healthy core and is void.
    ctx_.test->invalidate_progress(core);
    return true;
}

void PlatformEngine::inject_wear(std::span<const CoreId> cores,
                                 double damage) {
    for (CoreId id : cores) {
        aging_.add_damage(id, damage);
    }
}

void PlatformEngine::trace_epoch() {
    if (!ctx_.observers.wants_trace_samples()) {
        return;
    }
    TraceSample s;
    s.time = ctx_.sim.now();
    s.tdp_w = ctx_.budget.tdp_w();
    fill_power();
    for (const Core& c : ctx_.chip.cores()) {
        const double p = power_w_[c.id()];
        s.total_power_w += p;
        switch (c.state()) {
            case CoreState::Busy:
                s.workload_power_w += p;
                ++s.cores_busy;
                break;
            case CoreState::Testing:
                s.test_power_w += p;
                ++s.cores_testing;
                break;
            case CoreState::Dark:
                s.other_power_w += p;
                ++s.cores_dark;
                break;
            default:
                s.other_power_w += p;
                break;
        }
    }
    const double noc_now = noc_power_w();
    s.total_power_w += noc_now;
    s.other_power_w += noc_now;
    s.max_temp_c = thermal_.max_temp_c();
    ctx_.observers.trace_sample(s);
}

// ------------------------------------------------------ snapshot support

void PlatformEngine::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("samples");
    w.begin_object();
    w.field("state", state_samples_);
    w.field("dark", dark_samples_);
    w.field("testing", testing_samples_);
    w.field("reserved", reserved_samples_);
    w.end_object();
    w.field("energy_clock", energy_clock_);
    w.field("link_test_energy_j", link_test_energy_j_);
    w.field("peak_temp_c", peak_temp_c_);

    w.key("power_mgr");
    power_mgr_.save_state(w);
    w.key("thermal");
    thermal_.save_state(w);
    w.key("aging");
    aging_.save_state(w);
    if (faults_) {
        w.key("faults");
        w.begin_object();
        faults_->save_state(w);
        w.end_object();
    }
    w.end_object();
}

void PlatformEngine::load_state(const telemetry::JsonValue& doc) {
    const telemetry::JsonValue& samples = doc.at("samples");
    state_samples_ = samples.at("state").u64();
    dark_samples_ = samples.at("dark").u64();
    testing_samples_ = samples.at("testing").u64();
    reserved_samples_ = samples.at("reserved").u64();
    energy_clock_ = doc.at("energy_clock").u64();
    link_test_energy_j_ = doc.at("link_test_energy_j").number();
    peak_temp_c_ = doc.at("peak_temp_c").number();
    power_mgr_.load_state(doc.at("power_mgr"));
    thermal_.load_state(doc.at("thermal"));
    aging_.load_state(doc.at("aging"));
    if (faults_) {
        faults_->load_state(doc.at("faults"));
    }
}

void PlatformEngine::finalize_into(RunMetrics& m, SimTime end) {
    const double secs = to_seconds(end);
    if (state_samples_ > 0) {
        m.mean_dark_fraction = static_cast<double>(dark_samples_) /
                               static_cast<double>(state_samples_);
        m.mean_testing_fraction = static_cast<double>(testing_samples_) /
                                  static_cast<double>(state_samples_);
        m.mean_reserved_fraction = static_cast<double>(reserved_samples_) /
                                   static_cast<double>(state_samples_);
    }

    m.tdp_w = ctx_.budget.tdp_w();
    m.mean_power_w = ctx_.budget.power_stats().mean();
    m.max_power_w = ctx_.budget.power_stats().max();
    m.power_samples = ctx_.budget.samples();
    m.tdp_violations = ctx_.budget.violations();
    m.tdp_violation_rate = ctx_.budget.violation_rate();
    m.worst_overshoot_w = ctx_.budget.worst_overshoot_w();

    m.energy_noc_j = ctx_.noc.total_energy_j() +
                     ctx_.noc.routers_idle_power_w() * secs +
                     link_test_energy_j_;
    m.energy_total_j = m.energy_busy_j + m.energy_test_j + m.energy_idle_j +
                       m.energy_noc_j;
    m.test_energy_share =
        m.energy_total_j > 0.0 ? m.energy_test_j / m.energy_total_j : 0.0;

    if (faults_) {
        m.faults_injected = faults_->injected_count();
        m.faults_detected = faults_->detected_count();
        m.test_escapes = faults_->escaped_tests();
        m.corrupted_tasks = faults_->corrupted_tasks();
    }

    m.noc_mean_utilization = ctx_.noc.mean_utilization();
    m.noc_peak_utilization = ctx_.noc.peak_utilization();
    m.noc_messages = ctx_.noc.messages_sent();

    m.peak_temp_c = peak_temp_c_;
    m.mean_damage = aging_.mean_damage();
    m.max_damage = aging_.max_damage();
    m.damage_imbalance =
        m.mean_damage > 0.0
            ? (m.max_damage - aging_.min_damage()) / m.mean_damage
            : 0.0;

    m.dvfs_throttle_steps = power_mgr_.throttle_steps();
    m.dvfs_boost_steps = power_mgr_.boost_steps();
}

}  // namespace mcs
