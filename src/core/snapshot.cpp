#include "core/snapshot.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "core/platform_engine.hpp"
#include "core/scenario_hook.hpp"
#include "core/system.hpp"
#include "core/system_context.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/schema.hpp"
#include "telemetry/tracer.hpp"
#include "util/fnv1a.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

// ------------------------------------------------------- fingerprinting

void hash_graph(Fnv1a& fp, const TaskGraph& g) {
    fp.u64(g.size());
    for (TaskIndex t = 0; t < static_cast<TaskIndex>(g.size()); ++t) {
        const Task& task = g.task(t);
        fp.u64(task.cycles);
        fp.u64(task.successors.size());
        for (const TaskEdge& e : task.successors) {
            fp.u64(e.dst);
            fp.u64(e.bytes);
        }
    }
}

// Structure-defining configuration: everything that fixes the *shape and
// meaning* of the persisted state vectors (chip geometry, the workload
// model the arrival trace regenerates from, the SBST suite, which optional
// subsystems exist). Policy knobs stay out -- forked replicas vary them.
void hash_structural(Fnv1a& fp, const SystemConfig& cfg) {
    fp.i64(cfg.width);
    fp.i64(cfg.height);
    fp.i64(static_cast<int>(cfg.node));

    const WorkloadParams& wl = cfg.workload;
    fp.f64(wl.arrival_rate_hz);
    const TaskGraphGenParams& g = wl.graphs;
    fp.i64(g.min_tasks);
    fp.i64(g.max_tasks);
    fp.u64(g.min_cycles);
    fp.u64(g.max_cycles);
    fp.u64(g.min_edge_bytes);
    fp.u64(g.max_edge_bytes);
    fp.i64(g.max_fanin);
    fp.u64(wl.graph_library.size());
    for (const TaskGraph& graph : wl.graph_library) {
        hash_graph(fp, graph);
    }
    fp.f64(wl.best_effort_weight);
    fp.f64(wl.soft_rt_weight);
    fp.f64(wl.hard_rt_weight);
    fp.f64(wl.hard_deadline_factor);
    fp.f64(wl.soft_deadline_factor);
    fp.f64(wl.reference_freq_hz);

    const TestSuite suite = cfg.suite ? *cfg.suite : TestSuite::standard();
    fp.u64(suite.routine_count());
    for (const TestRoutine& r : suite.routines()) {
        fp.i64(static_cast<int>(r.unit));
        fp.str(r.name);
        fp.u64(r.cycles);
        fp.f64(r.coverage);
        fp.f64(r.activity);
    }

    fp.boolean(cfg.enable_fault_injection);
    fp.boolean(cfg.enable_noc_testing);
    fp.boolean(cfg.segmented_tests);
}

void hash_full(Fnv1a& fp, const SystemConfig& cfg) {
    hash_structural(fp, cfg);
    fp.u64(cfg.seed);
    fp.f64(cfg.tdp_scale);

    const NocParams& n = cfg.noc;
    fp.f64(n.link_bandwidth_bytes_per_s);
    fp.u64(n.router_latency);
    fp.f64(n.energy_per_byte_hop_j);
    fp.f64(n.router_idle_power_w);
    fp.f64(n.util_ewma_alpha);
    fp.u64(n.util_window);
    fp.f64(n.max_effective_util);

    const ActivityFactors& a = cfg.activity;
    fp.f64(a.idle);
    fp.f64(a.busy);
    fp.f64(a.test);
    fp.f64(a.gated_leak_fraction);

    const PowerManagerParams& p = cfg.power;
    fp.i64(static_cast<int>(p.mode));
    fp.f64(p.pid.kp);
    fp.f64(p.pid.ki);
    fp.f64(p.pid.kd);
    fp.f64(p.pid.out_min);
    fp.f64(p.pid.out_max);
    fp.f64(p.pid.integral_limit);
    fp.f64(p.setpoint_fraction);
    fp.f64(p.deadband);
    fp.f64(p.boost_fraction);
    fp.u64(p.gate_delay);
    fp.boolean(p.enable_power_gating);

    const ThermalParams& t = cfg.thermal;
    fp.f64(t.ambient_c);
    fp.f64(t.heat_capacity_j_per_k);
    fp.f64(t.g_vertical_w_per_k);
    fp.f64(t.g_lateral_w_per_k);
    fp.f64(t.max_dt_s);

    const AgingParams& ag = cfg.aging;
    fp.f64(ag.nominal_lifetime_s);
    fp.f64(ag.ref_temp_c);
    fp.f64(ag.temp_accel_slope_c);
    fp.f64(ag.stress_busy);
    fp.f64(ag.stress_test);
    fp.f64(ag.stress_idle);

    const CriticalityParams& cr = cfg.criticality;
    fp.i64(static_cast<int>(cr.mode));
    fp.f64(cr.w_util);
    fp.f64(cr.w_time);
    fp.f64(cr.w_aging);
    fp.f64(cr.util_ref_cycles);
    fp.u64(cr.time_ref);
    fp.f64(cr.saturation);
    fp.f64(cr.threshold);

    const FaultModelParams& fm = cfg.faults;
    fp.f64(fm.base_rate_per_core_s);
    fp.f64(fm.task_corruption_prob);
    fp.f64(fm.stuck_at_weight);
    fp.f64(fm.delay_weight);
    fp.f64(fm.low_voltage_weight);
    fp.i64(fm.delay_visible_levels);
    fp.i64(fm.lowv_visible_levels);

    fp.i64(static_cast<int>(cfg.scheduler));
    const PowerAwareParams& pa = cfg.power_aware;
    fp.f64(pa.guard_band_fraction);
    fp.i64(pa.max_concurrent_tests);
    fp.i64(static_cast<int>(pa.vf_policy));
    fp.f64(pa.criticality_threshold);
    fp.u64(pa.min_idle_age);
    fp.f64(pa.max_test_temp_c);
    fp.boolean(pa.require_predicted_idle);
    fp.f64(pa.predicted_idle_margin);
    fp.u64(cfg.periodic_test_period);
    fp.boolean(static_cast<bool>(cfg.scheduler_factory));

    fp.i64(static_cast<int>(cfg.mapper));
    fp.boolean(static_cast<bool>(cfg.mapper_factory));
    fp.boolean(cfg.abort_tests_for_mapping);
    fp.u64(cfg.test_retry_backoff);

    const NocTestParams& nt = cfg.noc_test;
    fp.f64(nt.fault_rate_per_link_s);
    fp.u64(nt.test_bytes);
    fp.f64(nt.test_coverage);
    fp.f64(nt.test_power_w);
    fp.f64(nt.message_corruption_prob);
    fp.u64(nt.test_period_target);
    fp.f64(nt.max_test_utilization);
    fp.i64(nt.max_concurrent_tests);

    fp.u64(cfg.power_epoch);
    fp.u64(cfg.thermal_epoch);
    fp.u64(cfg.test_epoch);
    fp.u64(cfg.wear_epoch);
    fp.u64(cfg.trace_epoch);
}

// ------------------------------------------------- metrics round-trip

using telemetry::read_running_stats;
using telemetry::write_running_stats;

void write_u64_array(telemetry::JsonWriter& w, std::string_view key,
                     const std::vector<std::uint64_t>& values) {
    w.key(key);
    w.begin_array();
    for (std::uint64_t v : values) {
        w.value(v);
    }
    w.end_array();
}

void read_u64_array(const telemetry::JsonValue& doc, const std::string& key,
                    std::vector<std::uint64_t>& out) {
    std::vector<std::uint64_t> values = doc.at(key).u64s();
    MCS_REQUIRE(values.size() == out.size(),
                "snapshot metrics: per-class/per-level array size mismatch");
    out = std::move(values);
}

// Only the fields that *accumulate during the run* ride in the snapshot;
// everything finalize() derives (rates, fractions, component counters) is
// recomputed identically at the restored run's end.
void write_metrics(telemetry::JsonWriter& w, const RunMetrics& m) {
    w.begin_object();
    w.field("apps_arrived", m.apps_arrived);
    w.field("apps_completed", m.apps_completed);
    w.field("tasks_completed", m.tasks_completed);
    w.field("corrupted_apps", m.corrupted_apps);
    w.field("tests_completed", m.tests_completed);
    w.field("tests_aborted", m.tests_aborted);
    w.field("link_tests_completed", m.link_tests_completed);
    w.key("app_latency_ms");
    write_running_stats(w, m.app_latency_ms);
    w.key("app_queue_wait_ms");
    write_running_stats(w, m.app_queue_wait_ms);
    w.key("mapping_dispersion_hops");
    write_running_stats(w, m.mapping_dispersion_hops);
    w.key("test_interval_s");
    write_running_stats(w, m.test_interval_s);
    w.key("detection_latency_s");
    write_running_stats(w, m.detection_latency_s);
    w.key("link_detection_latency_s");
    write_running_stats(w, m.link_detection_latency_s);
    write_u64_array(w, "apps_completed_by_class", m.apps_completed_by_class);
    write_u64_array(w, "deadlines_met_by_class", m.deadlines_met_by_class);
    write_u64_array(w, "deadlines_missed_by_class",
                    m.deadlines_missed_by_class);
    write_u64_array(w, "tests_per_vf_level", m.tests_per_vf_level);
    w.key("detection_latency_samples");
    w.begin_array();
    for (double v : m.detection_latency_samples.samples()) {
        w.value(v);
    }
    w.end_array();
    w.field("energy_busy_j", m.energy_busy_j);
    w.field("energy_test_j", m.energy_test_j);
    w.field("energy_idle_j", m.energy_idle_j);
    w.end_object();
}

void read_metrics(const telemetry::JsonValue& doc, RunMetrics& m) {
    m.apps_arrived = doc.at("apps_arrived").u64();
    m.apps_completed = doc.at("apps_completed").u64();
    m.tasks_completed = doc.at("tasks_completed").u64();
    m.corrupted_apps = doc.at("corrupted_apps").u64();
    m.tests_completed = doc.at("tests_completed").u64();
    m.tests_aborted = doc.at("tests_aborted").u64();
    m.link_tests_completed = doc.at("link_tests_completed").u64();
    m.app_latency_ms = read_running_stats(doc.at("app_latency_ms"));
    m.app_queue_wait_ms = read_running_stats(doc.at("app_queue_wait_ms"));
    m.mapping_dispersion_hops =
        read_running_stats(doc.at("mapping_dispersion_hops"));
    m.test_interval_s = read_running_stats(doc.at("test_interval_s"));
    m.detection_latency_s = read_running_stats(doc.at("detection_latency_s"));
    m.link_detection_latency_s =
        read_running_stats(doc.at("link_detection_latency_s"));
    read_u64_array(doc, "apps_completed_by_class", m.apps_completed_by_class);
    read_u64_array(doc, "deadlines_met_by_class", m.deadlines_met_by_class);
    read_u64_array(doc, "deadlines_missed_by_class",
                   m.deadlines_missed_by_class);
    read_u64_array(doc, "tests_per_vf_level", m.tests_per_vf_level);
    SampleSet samples;
    for (double v : doc.at("detection_latency_samples").numbers()) {
        samples.add(v);
    }
    m.detection_latency_samples = samples;
    m.energy_busy_j = doc.at("energy_busy_j").number();
    m.energy_test_j = doc.at("energy_test_j").number();
    m.energy_idle_j = doc.at("energy_idle_j").number();
}

}  // namespace

std::string structural_fingerprint(const SystemConfig& cfg) {
    Fnv1a fp;
    hash_structural(fp, cfg);
    return fp.hex();
}

std::string config_fingerprint(const SystemConfig& cfg) {
    Fnv1a fp;
    hash_full(fp, cfg);
    return fp.hex();
}

// ----------------------------------------------------- capture (facade)

void ManycoreSystem::write_snapshot(std::ostream& out,
                                    SimDuration horizon) const {
    Simulator& sim = ctx_->sim;
    const SimTime now = sim.now();

    // The typed event manifest is the queue's pending records, in ascending
    // original sequence = the captured scheduling order; restore replays in
    // this order so ties at equal timestamps stay identical.
    const std::vector<PendingRecord> events = sim.pending_records();
    for (const PendingRecord& e : events) {
        MCS_REQUIRE(e.record.kind != nullptr,
                    "snapshot capture: a pending event has no record");
        MCS_REQUIRE(e.when > now,
                    "pending event at or before the capture point");
    }

    telemetry::JsonWriter w(out);
    w.begin_object();
    w.field("schema", telemetry::schema_tag("mcs.snapshot"));
    w.field("config_fingerprint", config_fingerprint(cfg_));
    w.field("structural_fingerprint", structural_fingerprint(cfg_));
    w.field("seed", cfg_.seed);
    w.field("scheduler", test_->scheduler().name());
    w.field("horizon", horizon);
    w.field("now", now);
    w.field("executed", sim.events_executed());
    w.field("cancelled", sim.events_cancelled());

    w.key("budget");
    ctx_->budget.save_state(w);
    telemetry::write_rng(w, "map_rng", ctx_->map_rng);
    w.key("cores");
    w.begin_array();
    for (const Core& c : ctx_->chip.cores()) {
        c.save_state(w);
    }
    w.end_array();
    w.key("noc");
    ctx_->noc.save_state(w);

    w.key("metrics");
    write_metrics(w, ctx_->metrics);
    w.key("registry");
    ctx_->registry.write_json(w);
    if (ctx_->tracer != nullptr) {
        w.key("tracer");
        ctx_->tracer->save_state(w);
    }

    w.key("workload");
    workload_->save_state(w);
    w.key("test");
    test_->save_state(w);
    w.key("platform");
    platform_->save_state(w);
    if (scenario_ != nullptr) {
        w.key("scenario");
        scenario_->save_state(w);
    }

    w.key("events");
    w.begin_array();
    for (const PendingRecord& e : events) {
        w.begin_object();
        w.field("kind", std::string_view(e.record.kind));
        w.field("when", e.when);
        w.field("seq", e.seq);
        w.field("a", e.record.a);
        w.field("b", e.record.b);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

// ----------------------------------------------------- restore (facade)

void ManycoreSystem::restore(const telemetry::JsonValue& doc,
                             RestoreOptions opts) {
    telemetry::require_schema(doc, "mcs.snapshot");
    MCS_REQUIRE(!ran_, "restore must precede run()");
    MCS_REQUIRE(!restored_, "restore may only be called once");
    MCS_REQUIRE(
        doc.at("structural_fingerprint").string() ==
            structural_fingerprint(cfg_),
        "snapshot structural fingerprint mismatch: chip geometry, workload "
        "model, suite, or enabled subsystems differ from the capture");
    if (!opts.relax_config) {
        MCS_REQUIRE(doc.at("config_fingerprint").string() ==
                        config_fingerprint(cfg_),
                    "snapshot config fingerprint mismatch (use relax_config "
                    "to fork under different policy knobs)");
    }

    const SimTime now = doc.at("now").u64();
    restored_horizon_ = doc.at("horizon").u64();
    MCS_REQUIRE(now > 0 && now < restored_horizon_,
                "snapshot clock outside the captured run");

    // A snapshot of a scenario run only restores into a system with the
    // matching driver attached (and vice versa): the driver re-creates
    // injected applications and replays applied side effects below, which
    // a bare system cannot do.
    MCS_REQUIRE(doc.has("scenario") == (scenario_ != nullptr),
                doc.has("scenario")
                    ? "snapshot was captured with a scenario attached; "
                      "attach the same scenario before restore"
                    : "a scenario is attached but the snapshot was captured "
                      "without one");

    // 1. Regenerate the arrival trace under the *snapshot's* seed: the
    //    per-app runtime state loaded below indexes into it, and a forked
    //    replica must continue the captured workload, not invent a new one.
    workload_->restore_workload(restored_horizon_, doc.at("seed").u64());
    if (scenario_ != nullptr) {
        // The driver's replay position loads first so reinject_restored
        // knows which directives had fired; the injected applications must
        // be re-appended before the workload engine's per-app state loads
        // (load_state checks the app count).
        scenario_->load_state(doc.at("scenario"));
        scenario_->reinject_restored();
    }

    // 2. Substrate state.
    ctx_->budget.load_state(doc.at("budget"));
    ctx_->map_rng = telemetry::read_rng(doc, "map_rng");
    const auto& cores = doc.at("cores").array();
    MCS_REQUIRE(cores.size() == ctx_->chip.core_count(),
                "snapshot core count mismatch");
    for (std::size_t i = 0; i < cores.size(); ++i) {
        ctx_->chip.core(static_cast<CoreId>(i)).load_state(cores[i]);
    }
    ctx_->noc.load_state(doc.at("noc"));
    read_metrics(doc.at("metrics"), ctx_->metrics);
    ctx_->registry.load_state(doc.at("registry"));
    // The captured trace ring reloads only into an attached tracer (attach
    // it BEFORE restore); restoring without one simply drops the history.
    if (ctx_->tracer != nullptr && doc.has("tracer")) {
        ctx_->tracer->load_state(doc.at("tracer"));
    }

    workload_->load_state(doc.at("workload"));
    test_->load_state(doc.at("test"));
    platform_->load_state(doc.at("platform"));
    if (scenario_ != nullptr) {
        // Applied side effects that live outside the persisted state (the
        // budget's TDP is constructed from config, so a mid-run set_budget
        // directive must be replayed onto the restored budget).
        scenario_->reapply_restored();
    }

    // 3. Clock, then the event manifest in ascending captured sequence.
    //    Each dispatch schedules exactly one event, with the record it was
    //    captured from, so the rebuilt queue breaks timestamp ties exactly
    //    as the captured one did and can be captured again.
    ctx_->sim.restore_clock(now, doc.at("executed").u64(),
                            doc.at("cancelled").u64());
    const auto& events = doc.at("events").array();
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const auto& entry : events) {
        const std::string& kind = entry.at("kind").string();
        const SimTime when = entry.at("when").u64();
        const std::uint64_t seq = entry.at("seq").u64();
        MCS_REQUIRE(first || seq > prev_seq,
                    "snapshot manifest: events must be strictly ordered by "
                    "sequence");
        first = false;
        prev_seq = seq;
        MCS_REQUIRE(when > now,
                    "snapshot manifest: event at or before the capture "
                    "point");
        const std::uint64_t a = entry.at("a").u64();
        const std::uint64_t b = entry.at("b").u64();
        const auto epoch =
            std::find(kEpochKinds.begin(), kEpochKinds.end(), kind);
        if (epoch != kEpochKinds.end()) {
            register_epoch(
                static_cast<std::size_t>(epoch - kEpochKinds.begin()), when);
        } else if (kind == "arrival") {
            workload_->schedule_restored_arrival(
                static_cast<std::size_t>(a), when);
        } else if (kind == "task_complete") {
            workload_->schedule_restored_completion(a, when);
        } else if (kind == "edge") {
            workload_->schedule_restored_edge(static_cast<std::size_t>(a), b,
                                              when);
        } else if (kind == "test_session_complete") {
            test_->schedule_restored_session(a, when);
        } else if (kind == "link_test_complete") {
            test_->schedule_restored_link_test(a, when);
        } else if (kind == "scenario") {
            MCS_REQUIRE(scenario_ != nullptr,
                        "snapshot has a pending scenario directive but no "
                        "scenario is attached");
            scenario_->schedule_restored_directive(a, when);
        } else {
            MCS_REQUIRE(false, "snapshot manifest: unknown event kind");
        }
    }
    MCS_REQUIRE(std::all_of(epoch_registered_.begin(),
                            epoch_registered_.end(),
                            [](bool registered) { return registered; }),
                "snapshot manifest: a periodic epoch event is missing");
    const std::vector<PendingRecord> pending = ctx_->sim.pending_records();
    MCS_REQUIRE(pending.size() == events.size(),
                "restored pending events do not match the manifest");
    // One event per (kind, a) as the engines recorded it: each names
    // something its owner holds at most once. In-flight edges are the
    // exception (several messages may travel to one task).
    std::set<std::pair<std::string_view, std::uint64_t>> seen;
    for (const PendingRecord& p : pending) {
        MCS_REQUIRE(p.record.kind != nullptr,
                    "restore scheduled an event without a record");
        MCS_REQUIRE(p.record.is("edge") ||
                        seen.emplace(p.record.kind, p.record.a).second,
                    "snapshot manifest: duplicate event");
    }
    if (scenario_ != nullptr) {
        const auto directives = std::count_if(
            pending.begin(), pending.end(), [](const PendingRecord& p) {
                return p.record.is("scenario");
            });
        MCS_REQUIRE(directives == (scenario_->directive_due() ? 1 : 0),
                    "snapshot manifest: the scenario's pending directive "
                    "does not match its replay position");
    }
    workload_->check_restored_events(pending);
    test_->check_restored_events(pending);
    restored_ = true;
}

}  // namespace mcs
