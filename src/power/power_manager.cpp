#include "power/power_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {

PowerManager::PowerManager(Chip& chip, const PowerModel& model,
                           PowerBudget& budget,
                           telemetry::MetricsRegistry& registry,
                           PowerManagerParams params)
    : chip_(chip),
      model_(model),
      budget_(budget),
      params_(params),
      pid_(params.pid),
      throttle_(registry.counter("power.dvfs_throttle_steps")),
      boost_(registry.counter("power.dvfs_boost_steps")),
      gated_(registry.counter("power.cores_gated")),
      actuations_(registry.counter("power.capping_actuations")),
      last_active_(chip.core_count(), 0) {
    MCS_REQUIRE(params_.deadband >= 0.0, "deadband must be non-negative");
    MCS_REQUIRE(params_.setpoint_fraction > 0.0 &&
                    params_.setpoint_fraction <= 1.0,
                "setpoint fraction must be in (0,1]");
    MCS_REQUIRE(params_.boost_fraction > 0.0 && params_.boost_fraction <= 1.0,
                "boost fraction must be in (0,1]");
    // Power-on conformance: cores boot at the top DVFS level, which for a
    // very tight budget can put even the *idle* chip over the cap. Bring
    // idle cores down to the highest level whose chip-wide idle power fits
    // under the setpoint (a no-op for ordinary budgets).
    const double ref_temp = chip_.tech().leak_ref_temp_c;
    const auto cores = static_cast<double>(chip_.core_count());
    int boot_level = chip_.max_vf_level();
    while (boot_level > 0 &&
           model_.core_power_w(CoreState::Idle, boot_level, ref_temp) *
                   cores >
               setpoint_w()) {
        --boot_level;
    }
    if (boot_level < chip_.max_vf_level()) {
        for (Core& c : chip_.cores()) {
            if (c.is_idle()) {
                c.set_vf_level(0, boot_level);
            }
        }
    }
    // Anchor the admission ledger to the boot-state power so grants made
    // before the first control epoch see honest headroom.
    committed_power_w_ = model_.chip_power_w(chip_, {});
}

void PowerManager::set_vf_change_listener(
    std::function<void(CoreId, int, int)> listener) {
    vf_listener_ = std::move(listener);
}

void PowerManager::set_priority_lookup(std::function<int(CoreId)> lookup) {
    priority_lookup_ = std::move(lookup);
}

void PowerManager::set_tracer(telemetry::Tracer* tracer) {
    tracer_ = tracer;
}

double PowerManager::setpoint_w() const {
    return params_.setpoint_fraction * budget_.tdp_w();
}

void PowerManager::change_vf(SimTime now, Core& core, int new_level) {
    const int old_level = core.vf_level();
    if (old_level == new_level) {
        return;
    }
    core.set_vf_level(now, new_level);
    if (tracer_ != nullptr) {
        tracer_->record(now, telemetry::TraceCategory::Dvfs,
                        telemetry::TracePhase::Instant, "vf_change",
                        core.id(), old_level, new_level);
    }
    if (vf_listener_) {
        vf_listener_(core.id(), old_level, new_level);
    }
}

void PowerManager::control_epoch(SimTime now, double measured_power_w,
                                 std::span<const double> temps_c) {
    measured_power_w_ = measured_power_w;
    committed_power_w_ = measured_power_w_;  // ledger resets to ground truth
    budget_.record(now, measured_power_w_);

    double dt_s = 1e-4;  // nominal epoch on the very first call
    if (has_epoch_ && now > last_epoch_) {
        dt_s = to_seconds(now - last_epoch_);
    }
    last_epoch_ = now;
    has_epoch_ = true;

    if (params_.mode == CappingMode::BangBang) {
        // Naive capping: full-chip step in whichever direction the sign of
        // the instantaneous error points, with no ledger or proportionality.
        if (measured_power_w_ > budget_.tdp_w()) {
            bang_step(now, -1);
        } else if (measured_power_w_ < budget_.tdp_w()) {
            bang_step(now, +1);
        }
    } else {
        const double error =
            (setpoint_w() - measured_power_w_) / budget_.tdp_w();
        const double signal = pid_.update(error, dt_s);
        if (std::abs(signal) > params_.deadband) {
            actuations_.inc();
            if (tracer_ != nullptr) {
                // a/b carry the signed control signal and the measured
                // power, both in milli-units (the trace stores integers).
                tracer_->record(
                    now, telemetry::TraceCategory::Power,
                    telemetry::TracePhase::Instant, "cap_actuate", 0,
                    static_cast<std::int64_t>(signal * 1e3),
                    static_cast<std::int64_t>(measured_power_w_ * 1e3));
            }
            actuate(now, signal, temps_c);
        }
    }
    if (params_.enable_power_gating) {
        apply_power_gating(now);
    }
}

void PowerManager::bang_step(SimTime now, int direction) {
    const int max_level = chip_.max_vf_level();
    for (Core& c : chip_.cores()) {
        if (!c.is_busy()) {
            continue;
        }
        const int target = c.vf_level() + direction;
        if (target < 0 || target > max_level) {
            continue;
        }
        change_vf(now, c, target);
        (direction < 0 ? throttle_ : boost_).inc();
    }
}

void PowerManager::actuate(SimTime now, double signal,
                           std::span<const double> temps_c) {
    // Collect busy cores eligible for stepping. Testing cores are left
    // alone: their power was admitted at a fixed V/F by the test scheduler.
    busy_.clear();
    for (Core& c : chip_.cores()) {
        if (c.is_busy()) {
            const int priority =
                priority_lookup_ ? priority_lookup_(c.id()) : 0;
            busy_.push_back(BusyCore{priority, c.vf_level(), 0, &c});
        }
    }
    if (busy_.empty()) {
        return;
    }
    const double scale = signal < 0.0 ? 1.0 : params_.boost_fraction;
    const auto steps = static_cast<std::size_t>(std::ceil(
        std::abs(signal) * scale * static_cast<double>(busy_.size())));

    // One sort on keys computed once per busy core: priority, V/F level
    // (each in the direction's order, below), then the rotated id.
    // Fairness rotation must not defeat the priority/level ordering, so it
    // is a tie-break of the sort, not an offset into the sorted array.
    // Distinct ids can share a rotated id; the core id breaks those ties,
    // which keeps the order a stable sort of the id-ordered busy_ gives.
    const bool throttle = signal < 0.0;
    for (BusyCore& b : busy_) {
        b.rotated = (static_cast<std::size_t>(b.core->id()) + rotate_) %
                    busy_.size();
    }
    std::sort(busy_.begin(), busy_.end(),
              [throttle](const BusyCore& a, const BusyCore& b) {
                  if (a.priority != b.priority) {
                      return throttle ? a.priority < b.priority
                                      : a.priority > b.priority;
                  }
                  if (a.vf_level != b.vf_level) {
                      return throttle ? a.vf_level > b.vf_level
                                      : a.vf_level < b.vf_level;
                  }
                  if (a.rotated != b.rotated) {
                      return a.rotated < b.rotated;
                  }
                  return a.core->id() < b.core->id();
              });
    if (throttle) {
        // Over the setpoint: throttle low-priority work first, within a
        // priority the highest-level cores, rotating among equals so the
        // same core is not always the victim.
        std::size_t done = 0;
        for (std::size_t i = 0; i < busy_.size() && done < steps; ++i) {
            Core& c = *busy_[i].core;
            if (c.vf_level() > 0) {
                change_vf(now, c, c.vf_level() - 1);
                throttle_.inc();
                ++done;
            }
        }
    } else {
        // Headroom: boost high-priority work first, and within a priority
        // the lowest-level cores. Each step's power
        // increment is charged to the ledger and boosting stops when the
        // next step would push committed power past the setpoint -- this is
        // what keeps boost ramps from overshooting the cap.
        const int max_level = chip_.max_vf_level();
        std::size_t done = 0;
        for (std::size_t i = 0; i < busy_.size() && done < steps; ++i) {
            Core& c = *busy_[i].core;
            if (c.vf_level() >= max_level) {
                continue;
            }
            const double temp = temps_c.empty()
                                    ? chip_.tech().leak_ref_temp_c
                                    : temps_c[c.id()];
            const double delta =
                model_.core_power_w(CoreState::Busy, c.vf_level() + 1, temp) -
                model_.core_power_w(CoreState::Busy, c.vf_level(), temp);
            if (committed_power_w_ + delta > setpoint_w()) {
                break;
            }
            committed_power_w_ += delta;
            change_vf(now, c, c.vf_level() + 1);
            boost_.inc();
            ++done;
        }
    }
    ++rotate_;
}

int PowerManager::grant_task_level(CoreId core, double temp_c) {
    if (params_.mode == CappingMode::BangBang) {
        return chip_.max_vf_level();  // naive: no admission control
    }
    const Core& c = chip_.core(core);
    const double idle_now =
        model_.core_power_w(c.state(), c.vf_level(), temp_c);
    const double headroom = setpoint_w() - committed_power_w_;
    const int max_level = chip_.max_vf_level();
    for (int level = max_level; level > 0; --level) {
        const double delta =
            model_.core_power_w(CoreState::Busy, level, temp_c) - idle_now;
        if (delta <= headroom) {
            committed_power_w_ += delta;
            return level;
        }
    }
    // Level 0 is always granted: workload admission is never power-blocked,
    // only slowed (the core still adds its minimum power to the ledger).
    committed_power_w_ +=
        model_.core_power_w(CoreState::Busy, 0, temp_c) - idle_now;
    return 0;
}

double PowerManager::headroom_w() const {
    return std::max(0.0, setpoint_w() - committed_power_w_);
}

void PowerManager::reserve_power(double watts) {
    MCS_REQUIRE(watts >= 0.0, "cannot reserve negative power");
    committed_power_w_ += watts;
}

void PowerManager::apply_power_gating(SimTime now) {
    for (Core& c : chip_.cores()) {
        if (c.is_idle() && !c.reserved()) {
            if (now - last_active_[c.id()] >= params_.gate_delay) {
                c.power_gate(now);
                gated_.inc();
                if (tracer_ != nullptr) {
                    tracer_->record(now, telemetry::TraceCategory::Power,
                                    telemetry::TracePhase::Instant,
                                    "power_gate", c.id());
                }
            }
        } else if (c.state() != CoreState::Dark) {
            last_active_[c.id()] = now;
        }
    }
}

void PowerManager::wake_core(SimTime now, CoreId id, double temp_c) {
    Core& c = chip_.core(id);
    MCS_REQUIRE(c.state() == CoreState::Dark, "wake_core on non-dark core");
    const double temp =
        temp_c == kDefaultWakeTemp ? chip_.tech().leak_ref_temp_c : temp_c;
    const double gated = model_.core_power_w(CoreState::Dark, 0, temp);
    c.wake(now);
    // Wake frugally: the core idles at the bottom level until granted work.
    c.set_vf_level(now, 0);
    committed_power_w_ +=
        model_.core_power_w(CoreState::Idle, 0, temp) - gated;
    last_active_[id] = now;
}

void PowerManager::touch(SimTime now, CoreId id) {
    MCS_REQUIRE(id < last_active_.size(), "core id out of range");
    last_active_[id] = now;
}

void PowerManager::force_vf(SimTime now, CoreId id, int level) {
    Core& c = chip_.core(id);
    MCS_REQUIRE(c.state() == CoreState::Idle ||
                    c.state() == CoreState::Busy,
                "force_vf targets an Idle or Busy core");
    MCS_REQUIRE(level >= 0 &&
                    static_cast<std::size_t>(level) < c.vf_level_count(),
                "force_vf level out of range");
    change_vf(now, c, level);
}


void PowerManager::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("last_active");
    w.begin_array();
    for (SimTime t : last_active_) {
        w.value(t);
    }
    w.end_array();
    w.field("last_epoch", last_epoch_);
    w.field("has_epoch", has_epoch_);
    w.field("measured", measured_power_w_);
    w.field("committed", committed_power_w_);
    w.field("throttle", throttle_.value());
    w.field("boost", boost_.value());
    w.field("gated", gated_.value());
    w.field("rotate", static_cast<std::uint64_t>(rotate_));
    w.key("pid");
    pid_.save_state(w);
    w.end_object();
}

void PowerManager::load_state(const telemetry::JsonValue& doc) {
    std::vector<SimTime> last_active = doc.at("last_active").u64s();
    MCS_REQUIRE(last_active.size() == last_active_.size(),
                "power manager state: core count mismatch");
    last_active_ = std::move(last_active);
    last_epoch_ = doc.at("last_epoch").u64();
    has_epoch_ = doc.at("has_epoch").boolean();
    measured_power_w_ = doc.at("measured").number();
    committed_power_w_ = doc.at("committed").number();
    throttle_.restore(doc.at("throttle").u64());
    boost_.restore(doc.at("boost").u64());
    gated_.restore(doc.at("gated").u64());
    rotate_ = static_cast<std::size_t>(doc.at("rotate").u64());
    pid_.load_state(doc.at("pid"));
}

}  // namespace mcs
