#include "core/schedulers.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/tracer.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

// Checkpoint helper: emits an unordered per-core map as a sorted array of
// [core, value] pairs so the snapshot bytes are independent of hash order.
template <typename V>
void write_core_map(telemetry::JsonWriter& w, std::string_view key,
                    const std::unordered_map<CoreId, V>& map) {
    std::vector<std::pair<CoreId, V>> sorted(map.begin(), map.end());
    std::sort(sorted.begin(), sorted.end());
    w.key(key);
    w.begin_array();
    for (const auto& [core, value] : sorted) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(core));
        w.value(static_cast<std::int64_t>(value));
        w.end_array();
    }
    w.end_array();
}

// Every map holds a per-core count or time, so each value must be
// non-negative and fit V, and each key must name one core once.
template <typename V>
void read_core_map(const telemetry::JsonValue& doc, const std::string& key,
                   std::unordered_map<CoreId, V>& map) {
    map.clear();
    for (const telemetry::JsonValue& entry : doc.at(key).array()) {
        const auto& pair = entry.array();
        MCS_REQUIRE(pair.size() == 2,
                    "scheduler state: malformed per-core entry");
        const std::uint64_t core = pair[0].u64();
        const std::int64_t value = pair[1].i64();
        MCS_REQUIRE(std::in_range<CoreId>(core),
                    "scheduler state: core id out of range");
        MCS_REQUIRE(value >= 0 && std::in_range<V>(value),
                    "scheduler state: per-core value out of range");
        MCS_REQUIRE(map.emplace(static_cast<CoreId>(core),
                                static_cast<V>(value))
                        .second,
                    "scheduler state: repeated core id");
    }
}

}  // namespace

const char* to_string(TestVfPolicy policy) {
    switch (policy) {
        case TestVfPolicy::RotateAll: return "rotate-all";
        case TestVfPolicy::MaxOnly: return "max-only";
        case TestVfPolicy::MinOnly: return "min-only";
    }
    return "?";
}

PowerAwareTestScheduler::PowerAwareTestScheduler(PowerAwareParams params)
    : params_(params) {
    MCS_REQUIRE(params_.guard_band_fraction >= 0.0 &&
                    params_.guard_band_fraction < 1.0,
                "guard band must be in [0,1)");
    MCS_REQUIRE(params_.max_concurrent_tests > 0,
                "max concurrent tests must be positive");
}

int PowerAwareTestScheduler::next_vf_level(CoreId core,
                                           const SchedulerContext& ctx) {
    const int level = next_vf_level_peek(core, ctx);
    if (params_.vf_policy == TestVfPolicy::RotateAll) {
        // Advance the rotation. Sessions later aborted by the mapper keep
        // their advance: the rotation is cyclic, so no level is permanently
        // skipped, and coverage is measured by *completions* per level.
        ++rotation_[core];
    }
    return level;
}

int PowerAwareTestScheduler::next_vf_level_peek(
    CoreId core, const SchedulerContext& ctx) const {
    const int levels = static_cast<int>(ctx.vf_table->size());
    switch (params_.vf_policy) {
        case TestVfPolicy::MaxOnly:
            return levels - 1;
        case TestVfPolicy::MinOnly:
            return 0;
        case TestVfPolicy::RotateAll: {
            // Walk downwards from the top so early tests are short; the
            // per-core counter guarantees every level is eventually covered.
            const auto it = rotation_.find(core);
            const int counter = it == rotation_.end() ? 0 : it->second;
            return levels - 1 - (counter % levels);
        }
    }
    return levels - 1;
}

void PowerAwareTestScheduler::epoch(SchedulerContext& ctx) {
    if (ctx.candidates.empty()) {
        return;
    }
    // Most critical first; ties by core id for determinism.
    std::sort(ctx.candidates.begin(), ctx.candidates.end(),
              [](const TestCandidate& a, const TestCandidate& b) {
                  if (a.criticality != b.criticality) {
                      return a.criticality > b.criticality;
                  }
                  return a.core < b.core;
              });
    const double guard = params_.guard_band_fraction * ctx.tdp_w;
    double slack = ctx.power_slack_w;
    int running = ctx.tests_running;
    for (const TestCandidate& cand : ctx.candidates) {
        if (running >= params_.max_concurrent_tests) {
            break;
        }
        if (cand.criticality < params_.criticality_threshold) {
            break;  // candidates are sorted: the rest are below threshold too
        }
        if (!cand.dark && cand.idle_age < params_.min_idle_age) {
            continue;  // just freed: likely to be remapped immediately
        }
        if (cand.temp_c > params_.max_test_temp_c) {
            continue;  // thermal guard: testing would worsen a hot spot
        }
        if (params_.require_predicted_idle && ctx.test_duration) {
            const auto needed = static_cast<SimDuration>(
                params_.predicted_idle_margin *
                static_cast<double>(ctx.test_duration(
                    next_vf_level_peek(cand.core, ctx))));
            if (!cand.dark && cand.predicted_idle_remaining < needed) {
                continue;  // the mapper would likely abort this session
            }
        }
        const int level = next_vf_level(cand.core, ctx);
        const double power = ctx.test_power_w(cand.core, level);
        if (power + guard > slack) {
            // Roll the rotation back: this level was not actually covered.
            if (params_.vf_policy == TestVfPolicy::RotateAll) {
                --rotation_[cand.core];
            }
            ++rejected_power_;
            if (ctx.tracer != nullptr) {
                ctx.tracer->record(ctx.now,
                                   telemetry::TraceCategory::Session,
                                   telemetry::TracePhase::Instant,
                                   "test_reject_power", cand.core, level,
                                   static_cast<std::int64_t>(power * 1e3));
            }
            continue;  // a cheaper (lower-V/F) core might still fit
        }
        ctx.start_test(cand.core, level);
        slack -= power;
        ++running;
        ++admitted_;
    }
}

void PowerAwareTestScheduler::export_telemetry(
    telemetry::MetricsRegistry& registry) const {
    registry.counter("scheduler.tests_admitted").inc(admitted_);
    registry.counter("scheduler.tests_rejected_power").inc(rejected_power_);
}

void PowerAwareTestScheduler::save_state(telemetry::JsonWriter& w) const {
    write_core_map(w, "rotation", rotation_);
    w.field("admitted", admitted_);
    w.field("rejected_power", rejected_power_);
}

void PowerAwareTestScheduler::load_state(const telemetry::JsonValue& doc) {
    read_core_map(doc, "rotation", rotation_);
    admitted_ = doc.at("admitted").u64();
    rejected_power_ = doc.at("rejected_power").u64();
}

PeriodicTestScheduler::PeriodicTestScheduler(SimDuration period)
    : period_(period) {
    MCS_REQUIRE(period_ > 0, "test period must be positive");
}

void PeriodicTestScheduler::epoch(SchedulerContext& ctx) {
    const int top = static_cast<int>(ctx.vf_table->size()) - 1;
    for (const TestCandidate& cand : ctx.candidates) {
        auto [it, inserted] = due_.try_emplace(cand.core, 0);
        // Stagger initial due times across cores to avoid a thundering herd
        // at t = 0 (classic periodic-test practice).
        if (inserted) {
            it->second = period_ * (cand.core % 16) / 16;
        }
        if (ctx.now >= it->second) {
            ctx.start_test(cand.core, top);
            it->second = ctx.now + period_;
        }
    }
}

void PeriodicTestScheduler::save_state(telemetry::JsonWriter& w) const {
    write_core_map(w, "due", due_);
}

void PeriodicTestScheduler::load_state(const telemetry::JsonValue& doc) {
    read_core_map(doc, "due", due_);
}

DeadlineAwareTestScheduler::DeadlineAwareTestScheduler(
    SimDuration period, double guard_band_fraction, int max_concurrent_tests)
    : period_(period),
      guard_band_fraction_(guard_band_fraction),
      max_concurrent_(max_concurrent_tests) {
    MCS_REQUIRE(period_ > 0, "test period must be positive");
    MCS_REQUIRE(guard_band_fraction_ >= 0.0 && guard_band_fraction_ < 1.0,
                "guard band must be in [0,1)");
    MCS_REQUIRE(max_concurrent_ > 0, "max concurrent tests must be positive");
}

void DeadlineAwareTestScheduler::epoch(SchedulerContext& ctx) {
    if (ctx.candidates.empty()) {
        return;
    }
    const int top = static_cast<int>(ctx.vf_table->size()) - 1;
    // First-seen cores get a staggered first deadline (same thundering-herd
    // avoidance as the periodic baseline, shifted one period out).
    for (const TestCandidate& cand : ctx.candidates) {
        deadline_.try_emplace(cand.core,
                              period_ + period_ * (cand.core % 16) / 16);
    }
    // Earliest deadline first; ties by core id for determinism.
    std::sort(ctx.candidates.begin(), ctx.candidates.end(),
              [this](const TestCandidate& a, const TestCandidate& b) {
                  const SimTime da = deadline_.at(a.core);
                  const SimTime db = deadline_.at(b.core);
                  if (da != db) {
                      return da < db;
                  }
                  return a.core < b.core;
              });
    const double guard = guard_band_fraction_ * ctx.tdp_w;
    const SimDuration session = ctx.test_duration ? ctx.test_duration(top) : 0;
    const auto margin = static_cast<SimDuration>(
        kLaxityFactor * static_cast<double>(session));
    double slack = ctx.power_slack_w;
    int running = ctx.tests_running;
    for (const TestCandidate& cand : ctx.candidates) {
        if (running >= max_concurrent_) {
            break;
        }
        SimTime& dl = deadline_.at(cand.core);
        // Deadlines the core sailed past (busy, or every admission attempt
        // was power-rejected) are counted once per slipped period and the
        // cadence keeps its staggered grid.
        while (dl < ctx.now) {
            ++misses_;
            dl += period_;
        }
        if (ctx.now + margin < dl) {
            continue;  // laxity left: starting later still meets the deadline
        }
        const double power = ctx.test_power_w(cand.core, top);
        if (power + guard > slack) {
            ++rejected_power_;
            if (ctx.tracer != nullptr) {
                ctx.tracer->record(ctx.now,
                                   telemetry::TraceCategory::Session,
                                   telemetry::TracePhase::Instant,
                                   "test_reject_power", cand.core, top,
                                   static_cast<std::int64_t>(power * 1e3));
            }
            continue;  // a cheaper candidate might still fit under the guard
        }
        ctx.start_test(cand.core, top);
        dl += period_;
        slack -= power;
        ++running;
        ++admitted_;
    }
}

void DeadlineAwareTestScheduler::export_telemetry(
    telemetry::MetricsRegistry& registry) const {
    registry.counter("scheduler.tests_admitted").inc(admitted_);
    registry.counter("scheduler.tests_rejected_power").inc(rejected_power_);
    registry.counter("scheduler.deadline_misses").inc(misses_);
}

void DeadlineAwareTestScheduler::save_state(telemetry::JsonWriter& w) const {
    write_core_map(w, "deadline", deadline_);
    w.field("admitted", admitted_);
    w.field("rejected_power", rejected_power_);
    w.field("misses", misses_);
}

void DeadlineAwareTestScheduler::load_state(
    const telemetry::JsonValue& doc) {
    read_core_map(doc, "deadline", deadline_);
    admitted_ = doc.at("admitted").u64();
    rejected_power_ = doc.at("rejected_power").u64();
    misses_ = doc.at("misses").u64();
}

GreedyTestScheduler::GreedyTestScheduler(SimDuration min_gap)
    : min_gap_(min_gap) {}

void GreedyTestScheduler::epoch(SchedulerContext& ctx) {
    const int top = static_cast<int>(ctx.vf_table->size()) - 1;
    for (const TestCandidate& cand : ctx.candidates) {
        auto it = last_start_.find(cand.core);
        if (it != last_start_.end() && ctx.now - it->second < min_gap_) {
            continue;
        }
        ctx.start_test(cand.core, top);
        last_start_[cand.core] = ctx.now;
    }
}

void GreedyTestScheduler::save_state(telemetry::JsonWriter& w) const {
    write_core_map(w, "last_start", last_start_);
}

void GreedyTestScheduler::load_state(const telemetry::JsonValue& doc) {
    read_core_map(doc, "last_start", last_start_);
}

}  // namespace mcs
