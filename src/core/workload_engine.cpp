#include "core/workload_engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/platform_engine.hpp"
#include "core/system.hpp"
#include "core/test_engine.hpp"
#include "thermal/thermal_model.hpp"
#include "mapping/contiguous_mapper.hpp"
#include "mapping/reliability_mapper.hpp"
#include "noc/link_test.hpp"
#include "power/power_manager.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {

namespace {

std::unique_ptr<Mapper> make_mapper(const SystemConfig& cfg) {
    if (cfg.mapper_factory) {
        auto mapper = cfg.mapper_factory();
        MCS_REQUIRE(mapper != nullptr, "mapper factory returned null");
        return mapper;
    }
    switch (cfg.mapper) {
        case MapperKind::TestAware:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::test_aware());
        case MapperKind::ThermalAware:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::thermal_aware());
        case MapperKind::UtilizationOriented:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::utilization_oriented());
        case MapperKind::Contiguous:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::plain());
        case MapperKind::Random:
            return std::make_unique<RandomMapper>();
        case MapperKind::FirstFit:
            return std::make_unique<FirstFitMapper>();
        case MapperKind::ReliabilityWeighted:
            return std::make_unique<ReliabilityWeightedMapper>();
    }
    MCS_REQUIRE(false, "unknown mapper kind");
    return nullptr;
}

}  // namespace

WorkloadEngine::WorkloadEngine(SystemContext& ctx)
    : ctx_(ctx),
      mapper_(make_mapper(ctx.cfg)),
      idle_predictor_(ctx.chip.core_count()) {
    core_exec_.resize(ctx_.chip.core_count());
    view_.width = ctx_.cfg.width;
    view_.height = ctx_.cfg.height;
    view_allocatable_.assign(ctx_.chip.core_count(), 0);
    view_testing_.assign(ctx_.chip.core_count(), 0);
    view_utilization_.assign(ctx_.chip.core_count(), 0.0);
    for (const Core& c : ctx_.chip.cores()) {
        idle_predictor_.notify_available(c.id(), 0);
    }
    ctx_.power_mgr->set_vf_change_listener(
        [this](CoreId core, int old_level, int new_level) {
            on_vf_change(core, old_level, new_level);
        });
    ctx_.power_mgr->set_priority_lookup(
        [this](CoreId core) { return priority_of(core); });
    ctx_.idle_predictor = &idle_predictor_;
    ctx_.workload = this;
}

void WorkloadEngine::admit_workload(SimDuration horizon) {
    const std::size_t first = append_arrival_trace(horizon, ctx_.cfg.seed);
    for (std::size_t index = first; index < apps_.size(); ++index) {
        schedule_arrival(index, apps_[index].spec.arrival);
    }
}

std::size_t WorkloadEngine::append_arrival_trace(SimDuration horizon,
                                                 std::uint64_t root_seed) {
    WorkloadGenerator wg(ctx_.cfg.workload,
                         root_seed ^ 0xbf58476d1ce4e5b9ULL);
    auto specs = wg.generate(horizon);
    const std::size_t first = apps_.size();
    apps_.reserve(first + specs.size());
    for (auto& spec : specs) {
        apps_.emplace_back(std::move(spec));
    }
    ctx_.metrics.apps_arrived = apps_.size();
    return first;
}

void WorkloadEngine::schedule_arrival(std::size_t app_index, SimTime when) {
    ctx_.sim.schedule_at(
        when, [this, app_index] { on_arrival(app_index); },
        EventRecord{"arrival", app_index});
}

void WorkloadEngine::schedule_completion(CoreId core, SimTime when) {
    core_exec_[core].completion = ctx_.sim.schedule_at(
        when, [this, core] { on_task_complete(core); },
        EventRecord{"task_complete", core});
}

void WorkloadEngine::schedule_edge(std::size_t app_index, TaskIndex dst,
                                   SimTime when) {
    ctx_.sim.schedule_at(
        when, [this, app_index, dst] { deliver_edge(app_index, dst); },
        EventRecord{"edge", app_index, dst});
}

std::size_t WorkloadEngine::inject(ApplicationSpec spec) {
    const std::size_t index = apps_.size();
    apps_.emplace_back(std::move(spec));
    ctx_.metrics.apps_arrived = apps_.size();
    return index;
}

bool WorkloadEngine::app_mapped(std::size_t app_index) const {
    return !apps_[app_index].task_core.empty();
}

bool WorkloadEngine::app_done(std::size_t app_index) const {
    return apps_[app_index].done;
}

std::size_t WorkloadEngine::pending_in_class(std::size_t cls) const {
    return pending_[cls].size();
}

int WorkloadEngine::priority_of(CoreId core) const {
    const CoreExec& ex = core_exec_[core];
    return ex.active && !ctx_.priority_blind
               ? static_cast<int>(apps_[ex.app_index].spec.qos)
               : 0;
}

void WorkloadEngine::on_arrival(std::size_t app_index) {
    ctx_.observers.app_arrival(ctx_.sim.now(), app_index,
                               apps_[app_index].spec.graph.size());
    const auto cls =
        ctx_.priority_blind
            ? std::size_t{0}
            : static_cast<std::size_t>(apps_[app_index].spec.qos);
    pending_[cls].push_back(app_index);
    ++pending_total_;
    try_map_pending();
}

// One full chip scan per mapping round, not one per queued application:
// the round's first mapper call scans, later calls in the same round reuse
// the buffers. After each commit, commit_mapping() clears the committed
// cores' allocatable and testing entries. Within one simulation event
// those are the only view inputs a commit can change (reservation,
// wake-up, test abort):
//
//   * utilization: Core::busy_fraction(now) is unchanged at the same
//     timestamp (a task started "now" has accrued zero busy time);
//   * criticality: an aborted test does not reset stress counters or
//     last_test_end, and aging damage only moves at wear epochs;
//   * temperature: the thermal model only steps at thermal epochs.
//
// So the patched view is byte-identical to a full rescan. Each round
// rescans because utilization and criticality move with the clock between
// rounds.
void WorkloadEngine::scan_view() {
    const SimTime now = ctx_.sim.now();
    for (const Core& c : ctx_.chip.cores()) {
        bool ok = !c.reserved();
        switch (c.state()) {
            case CoreState::Idle:
            case CoreState::Dark:
                break;
            case CoreState::Testing:
                ok = ok && ctx_.cfg.abort_tests_for_mapping;
                break;
            case CoreState::Busy:
            case CoreState::Faulty:
                ok = false;
                break;
        }
        view_allocatable_[c.id()] = ok ? 1 : 0;
        view_testing_[c.id()] = c.is_testing() ? 1 : 0;
        view_utilization_[c.id()] = c.busy_fraction(now);
    }
    view_.allocatable = view_allocatable_;
    view_.utilization = view_utilization_;
    view_.testing = view_testing_;
    view_.criticality = ctx_.platform->refresh_criticality(now);
    view_.temperature_c = ctx_.thermal->temps_c();
    ++chip_scans_;
    view_valid_ = true;
}

void WorkloadEngine::try_map_pending() {
    if (mapping_in_progress_) {
        return;
    }
    mapping_in_progress_ = true;
    // Chip state may have moved since the last round (this call sits behind
    // a simulation event): force a fresh scan on first use.
    view_valid_ = false;
    // Serve classes in priority order (hard RT first). Within a class the
    // queue is FIFO with head-of-line blocking; a blocked head of a higher
    // class does not stall lower classes (work-conserving).
    for (std::size_t cls = kQosClassCount; cls-- > 0;) {
        auto& queue = pending_[cls];
        while (!queue.empty()) {
            const std::size_t index = queue.front();
            AppRun& app = apps_[index];
            if (!view_valid_) {
                scan_view();
            }
            ++mapping_attempts_;
            MapRequest request{app.spec.id, app.spec.graph.size()};
            const auto result = mapper_->map(request, view_, ctx_.map_rng);
            if (!result) {
                break;
            }
            ctx_.metrics.mapping_dispersion_hops.add(
                mapping_dispersion(view_, result->cores));
            queue.pop_front();
            --pending_total_;
            commit_mapping(index, *result);
        }
    }
    if (view_valid_) {
        ++mapping_rounds_;  // the round reached the mapper
    }
    mapping_in_progress_ = false;
}

void WorkloadEngine::commit_mapping(std::size_t app_index,
                                    const MappingResult& result) {
    const SimTime now = ctx_.sim.now();
    AppRun& app = apps_[app_index];
    MCS_REQUIRE(result.cores.size() == app.spec.graph.size(),
                "mapping result size mismatch");
    for (CoreId id : result.cores) {
        Core& c = ctx_.chip.core(id);
        // Patch the round's view (see scan_view()).
        view_allocatable_[id] = 0;
        view_testing_[id] = 0;
        if (c.is_testing()) {
            // Testing cores are only allocatable when aborts are allowed;
            // a mapper handing one over otherwise broke its contract.
            MCS_REQUIRE(ctx_.cfg.abort_tests_for_mapping,
                        "mapper claimed a testing core with aborts disabled");
            ctx_.test->abort_test(id);
        }
        if (c.state() == CoreState::Dark) {
            ctx_.power_mgr->wake_core(now, id, ctx_.thermal->temp_c(id));
        }
        MCS_REQUIRE(c.is_idle() && !c.reserved(),
                    "mapper selected an unavailable core");
        c.set_reserved(true);
        idle_predictor_.notify_unavailable(id, now);
        ctx_.power_mgr->touch(now, id);
    }
    ctx_.observers.app_mapped(now, app_index,
                              result.cores.empty() ? 0 : result.cores.front(),
                              result.cores.size());
    app.task_core = result.cores;
    const auto n = static_cast<TaskIndex>(app.spec.graph.size());
    app.waiting.resize(n);
    for (TaskIndex t = 0; t < n; ++t) {
        app.waiting[t] = app.spec.graph.pred_count(t);
    }
    ctx_.metrics.app_queue_wait_ms.add(
        to_milliseconds(now - app.spec.arrival));
    for (TaskIndex t : app.spec.graph.sources()) {
        start_task(app_index, t);
    }
}

void WorkloadEngine::start_task(std::size_t app_index, TaskIndex task) {
    const SimTime now = ctx_.sim.now();
    AppRun& app = apps_[app_index];
    const CoreId id = app.task_core[task];
    Core& c = ctx_.chip.core(id);
    MCS_REQUIRE(c.is_idle() && c.reserved(), "task core not ready");
    c.set_vf_level(
        now, ctx_.power_mgr->grant_task_level(id, ctx_.thermal->temp_c(id)));
    c.start_task(now);
    CoreExec& ex = core_exec_[id];
    MCS_REQUIRE(!ex.active, "core already executing a task");
    ex.active = true;
    ex.app_index = app_index;
    ex.task = task;
    ex.remaining_cycles =
        static_cast<double>(app.spec.graph.task(task).cycles);
    ex.last_progress = now;
    const SimDuration dur = std::max<SimDuration>(
        1, duration_for_cycles(app.spec.graph.task(task).cycles, c.freq_hz()));
    schedule_completion(id, now + dur);
}

void WorkloadEngine::on_task_complete(CoreId core) {
    const SimTime now = ctx_.sim.now();
    CoreExec& ex = core_exec_[core];
    MCS_REQUIRE(ex.active, "completion for inactive core");
    const std::size_t app_index = ex.app_index;
    const TaskIndex task = ex.task;
    ex.active = false;
    Core& c = ctx_.chip.core(core);
    c.finish_task(now);
    ++ctx_.metrics.tasks_completed;

    AppRun& app = apps_[app_index];
    if (ctx_.faults != nullptr && ctx_.faults->roll_task_corruption(core)) {
        app.corrupted = true;
    }
    for (const TaskEdge& e : app.spec.graph.task(task).successors) {
        const CoreId dst_core = app.task_core[e.dst];
        const Transfer t = ctx_.noc.send(core, dst_core, e.bytes);
        if (ctx_.link_tester != nullptr) {
            for (LinkId link : ctx_.noc.last_route()) {
                if (ctx_.link_tester->roll_message_corruption(link)) {
                    app.corrupted = true;
                    break;
                }
            }
        }
        schedule_edge(app_index, e.dst,
                      now + std::max<SimDuration>(1, t.latency));
    }
    ++app.tasks_done;
    if (app.tasks_done == app.spec.graph.size()) {
        release_app(app_index);
    }
}

void WorkloadEngine::deliver_edge(std::size_t app_index, TaskIndex dst) {
    AppRun& app = apps_[app_index];
    MCS_REQUIRE(app.waiting[dst] > 0, "duplicate edge delivery");
    if (--app.waiting[dst] == 0) {
        start_task(app_index, dst);
    }
}

void WorkloadEngine::release_app(std::size_t app_index) {
    const SimTime now = ctx_.sim.now();
    AppRun& app = apps_[app_index];
    MCS_REQUIRE(!app.done, "double app release");
    app.done = true;
    for (CoreId id : app.task_core) {
        Core& c = ctx_.chip.core(id);
        c.set_reserved(false);
        idle_predictor_.notify_available(id, now);
        ctx_.power_mgr->touch(now, id);
    }
    ++ctx_.metrics.apps_completed;
    if (app.corrupted) {
        ++ctx_.metrics.corrupted_apps;
    }
    const double latency_ms = to_milliseconds(now - app.spec.arrival);
    ctx_.observers.app_complete(now, app_index, app.corrupted, latency_ms);
    ctx_.metrics.app_latency_ms.add(latency_ms);
    const auto cls = static_cast<std::size_t>(app.spec.qos);
    ++ctx_.metrics.apps_completed_by_class[cls];
    if (app.spec.relative_deadline > 0) {
        const bool met =
            now - app.spec.arrival <= app.spec.relative_deadline;
        if (met) {
            ++ctx_.metrics.deadlines_met_by_class[cls];
        } else {
            ++ctx_.metrics.deadlines_missed_by_class[cls];
        }
    }
    try_map_pending();
}

void WorkloadEngine::on_vf_change(CoreId core, int old_level, int new_level) {
    CoreExec& ex = core_exec_[core];
    if (!ex.active) {
        return;
    }
    const SimTime now = ctx_.sim.now();
    const double old_freq =
        ctx_.chip.vf_table()[static_cast<std::size_t>(old_level)].freq_hz;
    const double new_freq =
        ctx_.chip.vf_table()[static_cast<std::size_t>(new_level)].freq_hz;
    const SimDuration elapsed = now - ex.last_progress;
    ex.remaining_cycles -= to_seconds(elapsed) * old_freq;
    ex.remaining_cycles = std::max(0.0, ex.remaining_cycles);
    ex.last_progress = now;
    ctx_.sim.cancel(ex.completion);
    const auto cycles = static_cast<std::uint64_t>(
        std::ceil(ex.remaining_cycles));
    const SimDuration dur =
        std::max<SimDuration>(1, duration_for_cycles(cycles, new_freq));
    schedule_completion(core, now + dur);
}

// ------------------------------------------------------ snapshot support

void WorkloadEngine::save_state(telemetry::JsonWriter& w) const {
    w.begin_object();
    w.key("apps");
    w.begin_array();
    for (const AppRun& app : apps_) {
        w.begin_object();
        w.field("done", app.done);
        w.field("corrupted", app.corrupted);
        w.field("tasks_done", static_cast<std::uint64_t>(app.tasks_done));
        w.key("task_core");
        w.begin_array();
        for (CoreId id : app.task_core) {
            w.value(static_cast<std::uint64_t>(id));
        }
        w.end_array();
        w.key("waiting");
        w.begin_array();
        for (std::uint32_t n : app.waiting) {
            w.value(static_cast<std::uint64_t>(n));
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("pending");
    w.begin_array();
    for (const auto& queue : pending_) {
        w.begin_array();
        for (std::size_t index : queue) {
            w.value(static_cast<std::uint64_t>(index));
        }
        w.end_array();
    }
    w.end_array();
    w.field("pending_total", static_cast<std::uint64_t>(pending_total_));
    w.key("core_exec");
    w.begin_array();
    for (const CoreExec& ex : core_exec_) {
        w.begin_object();
        w.field("active", ex.active);
        w.field("app", static_cast<std::uint64_t>(ex.app_index));
        w.field("task", static_cast<std::uint64_t>(ex.task));
        w.field("remaining", ex.remaining_cycles);
        w.field("last_progress", ex.last_progress);
        w.end_object();
    }
    w.end_array();
    w.field("mapping_rounds", mapping_rounds_);
    w.field("mapping_attempts", mapping_attempts_);
    w.key("idle");
    idle_predictor_.save_state(w);
    w.end_object();
}

void WorkloadEngine::load_state(const telemetry::JsonValue& doc) {
    const auto& apps = doc.at("apps").array();
    MCS_REQUIRE(apps.size() == apps_.size(),
                "snapshot workload: application count mismatch");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const telemetry::JsonValue& a = apps[i];
        AppRun& app = apps_[i];
        app.done = a.at("done").boolean();
        app.corrupted = a.at("corrupted").boolean();
        app.tasks_done = static_cast<std::size_t>(a.at("tasks_done").u64());
        // Both arrays are read straight into the app's vectors; each value
        // is range-checked as a u64 before it narrows.
        const auto& task_core = a.at("task_core").array();
        app.task_core.resize(task_core.size());
        for (std::size_t t = 0; t < task_core.size(); ++t) {
            const std::uint64_t id = task_core[t].u64();
            MCS_REQUIRE(id < ctx_.chip.core_count(),
                        "snapshot workload: mapped core out of range");
            app.task_core[t] = static_cast<CoreId>(id);
        }
        MCS_REQUIRE(app.task_core.empty() ||
                        app.task_core.size() == app.spec.graph.size(),
                    "snapshot workload: mapping size mismatch");
        const auto& waiting = a.at("waiting").array();
        MCS_REQUIRE(waiting.size() == app.task_core.size(),
                    "snapshot workload: waiting size mismatch");
        app.waiting.resize(waiting.size());
        for (std::size_t t = 0; t < waiting.size(); ++t) {
            const std::uint64_t count = waiting[t].u64();
            MCS_REQUIRE(count <= app.spec.graph.pred_count(
                                     static_cast<TaskIndex>(t)),
                        "snapshot workload: waiting count exceeds the "
                        "task's inputs");
            app.waiting[t] = static_cast<std::uint32_t>(count);
        }
        MCS_REQUIRE(app.tasks_done <= app.spec.graph.size(),
                    "snapshot workload: tasks_done out of range");
    }
    const auto& pending = doc.at("pending").array();
    MCS_REQUIRE(pending.size() == pending_.size(),
                "snapshot workload: QoS class count mismatch");
    std::size_t queued = 0;
    for (std::size_t cls = 0; cls < pending.size(); ++cls) {
        pending_[cls].clear();
        for (const std::uint64_t i : pending[cls].u64s()) {
            MCS_REQUIRE(i < apps_.size(),
                        "snapshot workload: queued app out of range");
            pending_[cls].push_back(static_cast<std::size_t>(i));
        }
        queued += pending_[cls].size();
    }
    MCS_REQUIRE(doc.at("pending_total").u64() == queued,
                "snapshot workload: pending_total does not match the "
                "queued applications");
    pending_total_ = queued;
    const auto& exec = doc.at("core_exec").array();
    MCS_REQUIRE(exec.size() == core_exec_.size(),
                "snapshot workload: core count mismatch");
    for (std::size_t c = 0; c < exec.size(); ++c) {
        const telemetry::JsonValue& e = exec[c];
        CoreExec& ex = core_exec_[c];
        ex.active = e.at("active").boolean();
        ex.app_index = static_cast<std::size_t>(e.at("app").u64());
        const std::uint64_t task = e.at("task").u64();
        ex.task = static_cast<TaskIndex>(task);
        ex.remaining_cycles = e.at("remaining").number();
        ex.last_progress = e.at("last_progress").u64();
        ex.completion = EventId{};  // re-created from the event manifest
        if (!ex.active) {
            continue;
        }
        const AppRun& app = running_app(ex.app_index, task,
                                        "snapshot workload: executing");
        MCS_REQUIRE(app.task_core[ex.task] == c,
                    "snapshot workload: executing task is not on the core "
                    "its app mapped it to");
    }
    mapping_rounds_ = doc.at("mapping_rounds").u64();
    mapping_attempts_ = doc.at("mapping_attempts").u64();
    idle_predictor_.load_state(doc.at("idle"));
}

void WorkloadEngine::restore_workload(SimDuration horizon,
                                      std::uint64_t root_seed) {
    MCS_REQUIRE(apps_.empty(), "restore_workload on a used engine");
    append_arrival_trace(horizon, root_seed);
}

void WorkloadEngine::schedule_restored_arrival(std::size_t app_index,
                                               SimTime when) {
    MCS_REQUIRE(app_index < apps_.size(),
                "snapshot manifest: arrival app out of range");
    MCS_REQUIRE(when == apps_[app_index].spec.arrival,
                "snapshot manifest: arrival time is not the app's arrival");
    schedule_arrival(app_index, when);
}

void WorkloadEngine::schedule_restored_completion(std::uint64_t core,
                                                  SimTime when) {
    MCS_REQUIRE(core < core_exec_.size(),
                "snapshot manifest: completion core out of range");
    const CoreExec& ex = core_exec_[core];
    MCS_REQUIRE(ex.active, "snapshot manifest: completion on inactive core");
    MCS_REQUIRE(!ex.completion.valid(),
                "snapshot manifest: duplicate completion for core");
    schedule_completion(static_cast<CoreId>(core), when);
}

void WorkloadEngine::schedule_restored_edge(std::size_t app_index,
                                            std::uint64_t task,
                                            SimTime when) {
    running_app(app_index, task, "snapshot manifest: edge");
    schedule_edge(app_index, static_cast<TaskIndex>(task), when);
}

void WorkloadEngine::check_restored_events(
    std::span<const PendingRecord> pending) const {
    std::size_t arrivals = 0;
    // In-flight edges per (app, destination task).
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> inflight;
    for (const PendingRecord& p : pending) {
        if (p.record.is("arrival")) {
            ++arrivals;
        } else if (p.record.is("edge")) {
            ++inflight[{p.record.a, p.record.b}];
        }
    }
    // Each arrival entry is unique and at its app's arrival time, which lies
    // after the capture point, so equal counts mean the same apps.
    const SimTime now = ctx_.sim.now();
    const auto due = std::count_if(
        apps_.begin(), apps_.end(),
        [now](const AppRun& app) { return app.spec.arrival > now; });
    MCS_REQUIRE(arrivals == static_cast<std::size_t>(due),
                "snapshot manifest: the arrivals are not the applications "
                "still to arrive");
    for (const CoreExec& ex : core_exec_) {
        MCS_REQUIRE(!ex.active || ex.completion.valid(),
                    "snapshot manifest: a running task has no completion");
    }
    for (std::size_t i = 0; i < apps_.size(); ++i) {
        const AppRun& app = apps_[i];
        if (app.task_core.empty() || app.done) {
            continue;
        }
        const TaskGraph& graph = app.spec.graph;
        const auto n = static_cast<TaskIndex>(graph.size());
        std::vector<std::uint32_t> expect(n, 0);
        std::size_t finished = 0;
        for (TaskIndex t = 0; t < n; ++t) {
            const CoreExec& ex = core_exec_[app.task_core[t]];
            const bool running =
                ex.active && ex.app_index == i && ex.task == t;
            MCS_REQUIRE(!running || app.waiting[t] == 0,
                        "snapshot manifest: a running task still waits for "
                        "input");
            // A task starts the moment its last input lands, so it has
            // finished iff it waits for nothing and is not running.
            if (app.waiting[t] == 0 && !running) {
                ++finished;
                continue;
            }
            for (const TaskEdge& e : graph.task(t).successors) {
                ++expect[e.dst];
            }
        }
        MCS_REQUIRE(finished == app.tasks_done,
                    "snapshot manifest: finished tasks do not match "
                    "tasks_done");
        for (TaskIndex t = 0; t < n; ++t) {
            const auto it = inflight.find({i, t});
            if (it != inflight.end()) {
                expect[t] += it->second;
            }
            MCS_REQUIRE(app.waiting[t] == expect[t],
                        "snapshot manifest: waiting inputs do not match the "
                        "in-flight edges and unfinished predecessors");
        }
    }
}

const WorkloadEngine::AppRun& WorkloadEngine::running_app(
    std::size_t app_index, std::uint64_t task, const char* what) const {
    MCS_REQUIRE(app_index < apps_.size(),
                std::string(what) + " app out of range");
    const AppRun& app = apps_[app_index];
    MCS_REQUIRE(!app.task_core.empty() && !app.done,
                std::string(what) + " app is not mapped and running");
    MCS_REQUIRE(task < app.spec.graph.size(),
                std::string(what) + " task out of range");
    return app;
}

void WorkloadEngine::finalize_into(RunMetrics& m, SimTime end) {
    const double secs = to_seconds(end);
    m.apps_rejected = pending_total_;
    m.throughput_tasks_per_s =
        static_cast<double>(m.tasks_completed) / secs;
    m.throughput_apps_per_s =
        static_cast<double>(m.apps_completed) / secs;
    std::uint64_t busy_cycles = 0;
    double util_sum = 0.0;
    for (const Core& c : ctx_.chip.cores()) {
        busy_cycles += c.total_busy_cycles();
        util_sum += c.busy_fraction(end);
    }
    m.work_cycles_per_s = static_cast<double>(busy_cycles) / secs;
    m.mean_chip_utilization =
        util_sum / static_cast<double>(ctx_.chip.core_count());
}

}  // namespace mcs
