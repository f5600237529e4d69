#pragma once

// WorkloadEngine: dynamic application admission and execution. Owns the
// QoS admission queues, the runtime mapper and the platform view it maps
// over, the per-core task execution state and the idle predictor; runs the
// mapping rounds, task starts/completions and NoC edge delivery. Testing
// and the power substrate are reached through SystemContext.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "app/workload.hpp"
#include "core/idle_predictor.hpp"
#include "core/snapshot.hpp"
#include "core/system_context.hpp"
#include "mapping/mapper.hpp"

namespace mcs {

class WorkloadEngine {
public:
    /// Builds the mapper from `ctx.cfg`, registers itself (and the idle
    /// predictor) in `ctx` and hooks the power manager's DVFS-change and
    /// QoS-priority callbacks.
    explicit WorkloadEngine(SystemContext& ctx);
    WorkloadEngine(const WorkloadEngine&) = delete;
    WorkloadEngine& operator=(const WorkloadEngine&) = delete;

    /// Generates the arrival trace for `horizon` and schedules one arrival
    /// event per application (called once by the façade before the run).
    void admit_workload(SimDuration horizon);

    /// Arrival event: enqueue into the QoS class queue and try to map.
    void on_arrival(std::size_t app_index);

    /// One mapping round: serve class queues in priority order, mapping
    /// queue heads until the mapper rejects. The platform view is scanned
    /// once per round and patched on each commit (equivalence argument above
    /// scan_view() in workload_engine.cpp).
    void try_map_pending();

    /// DVFS transition on `core`: rescale the in-flight task's remaining
    /// cycles and reschedule its completion.
    void on_vf_change(CoreId core, int old_level, int new_level);

    /// QoS class of the work on `core` (0 when idle or priority-blind);
    /// the power manager's priority lookup.
    int priority_of(CoreId core) const;

    // --- seams for unit tests and scenario scripting ---
    /// Appends an application without scheduling an arrival event; drive it
    /// with on_arrival(returned index).
    std::size_t inject(ApplicationSpec spec);
    bool app_mapped(std::size_t app_index) const;
    bool app_done(std::size_t app_index) const;
    std::size_t pending_in_class(std::size_t cls) const;
    std::size_t pending_total() const noexcept { return pending_total_; }
    /// Full chip scans performed by mapping rounds (== rounds that
    /// consulted the mapper since construction).
    std::uint64_t chip_scans() const noexcept { return chip_scans_; }
    std::uint64_t mapping_rounds() const noexcept { return mapping_rounds_; }
    /// Individual mapper invocations (> chip_scans() whenever a round
    /// served more than one queued application off one scan).
    std::uint64_t mapping_attempts() const noexcept {
        return mapping_attempts_;
    }
    const Mapper& mapper() const noexcept { return *mapper_; }

    /// Writes the workload-owned slice of the end-of-run metrics
    /// (rejections, throughput, utilization).
    void finalize_into(RunMetrics& m, SimTime end);

    // ---- snapshot support ----
    /// Complete engine state as one JSON object. Application *specs* are
    /// not serialized: they regenerate deterministically from the snapshot
    /// seed (restore_workload), and only the per-app runtime state rides in
    /// the snapshot.
    void save_state(telemetry::JsonWriter& w) const;
    void load_state(const telemetry::JsonValue& doc);
    /// Restore-path replacement for admit_workload(): regenerates the
    /// arrival trace for the snapshot's horizon and root seed WITHOUT
    /// scheduling arrival events -- the event manifest re-creates the ones
    /// still pending at capture. Must run on a fresh engine.
    void restore_workload(SimDuration horizon, std::uint64_t root_seed);
    /// Manifest replay. Each event carries the record it was captured
    /// from: "arrival" (a = app index), "task_complete" (a = core) and
    /// "edge" (a = app index, b = destination task), the same records the
    /// live paths schedule with.
    /// `core` and `task` are the manifest's 64-bit values, checked against
    /// the chip and the app's graph before they narrow.
    void schedule_restored_arrival(std::size_t app_index, SimTime when);
    void schedule_restored_completion(std::uint64_t core, SimTime when);
    void schedule_restored_edge(std::size_t app_index, std::uint64_t task,
                                SimTime when);
    /// After the replay, checks the restored state against the `pending`
    /// records: the arrivals are exactly the apps still to arrive, every
    /// running task has its completion, and in each mapped, unfinished app
    /// `waiting[t]` counts the in-flight edges into t plus one per graph
    /// edge from an unfinished task. Else a `snapshot manifest:`
    /// RequireError.
    void check_restored_events(std::span<const PendingRecord> pending) const;

private:
    // --- lifecycle of one application ---
    struct AppRun {
        explicit AppRun(ApplicationSpec s) : spec(std::move(s)) {}

        ApplicationSpec spec;
        bool done = false;
        bool corrupted = false;  ///< any task or message silently corrupted
        std::vector<CoreId> task_core;       ///< core of task i
        std::vector<std::uint32_t> waiting;  ///< undelivered preds of task i
        std::size_t tasks_done = 0;
    };

    /// Execution state of the task currently on a core.
    struct CoreExec {
        bool active = false;
        std::size_t app_index = 0;
        TaskIndex task = 0;
        double remaining_cycles = 0.0;
        SimTime last_progress = 0;
        EventId completion{};
    };

    /// Appends the arrival trace that `root_seed` generates up to
    /// `horizon` (no events); returns the index of its first app.
    std::size_t append_arrival_trace(SimDuration horizon,
                                     std::uint64_t root_seed);
    /// One scheduler per workload event kind, with the record the
    /// snapshot manifest lists; the live paths and the manifest replay
    /// share them.
    void schedule_arrival(std::size_t app_index, SimTime when);
    void schedule_completion(CoreId core, SimTime when);
    void schedule_edge(std::size_t app_index, TaskIndex dst, SimTime when);
    void commit_mapping(std::size_t app_index, const MappingResult& result);
    void scan_view();
    void start_task(std::size_t app_index, TaskIndex task);
    void on_task_complete(CoreId core);
    void deliver_edge(std::size_t app_index, TaskIndex dst);
    void release_app(std::size_t app_index);
    /// Restore check: the app at `app_index` is mapped and unfinished and
    /// `task` lies inside its graph; else a RequireError led by `what`.
    const AppRun& running_app(std::size_t app_index, std::uint64_t task,
                              const char* what) const;

    SystemContext& ctx_;
    std::unique_ptr<Mapper> mapper_;
    IdlePredictor idle_predictor_;
    /// The mapper's view of the chip and its owned buffers; valid from the
    /// round's first mapper call to the end of the round.
    PlatformView view_;
    std::vector<std::uint8_t> view_allocatable_;
    std::vector<std::uint8_t> view_testing_;
    std::vector<double> view_utilization_;
    bool view_valid_ = false;
    std::uint64_t chip_scans_ = 0;

    std::vector<AppRun> apps_;
    /// One FIFO admission queue per QoS class; higher classes are served
    /// first each mapping round (work-conserving: a blocked high-class head
    /// does not stall lower classes).
    std::array<std::deque<std::size_t>, kQosClassCount> pending_;
    std::size_t pending_total_ = 0;
    std::vector<CoreExec> core_exec_;
    bool mapping_in_progress_ = false;
    std::uint64_t mapping_rounds_ = 0;
    std::uint64_t mapping_attempts_ = 0;
};

}  // namespace mcs
