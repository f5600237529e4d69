// H1 -- hot-path gate: a full-system run's work counters and the event
// queue's pop order.
//
// Two halves, matching the perf-gate split in tools/check_bench.py:
//
//   * "metrics" (blocking, byte-deterministic): work counters from a fixed
//     full-system run plus a seeded event-queue mix. These pin the
//     semantics -- cancelled events must be counted, and the queue's pop
//     order must stay the strict (when, seq) FIFO order (hashed so any
//     reorder trips the 1e-6 gate).
//
//   * "wall" (aux, advisory): wall-clock of the epoch-quantized queue mix
//     on EventQueue. It lands in bench/trend.jsonl without ever entering
//     the determinism comparison.

#include <chrono>
#include <cstdio>
#include <queue>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/workload_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"

using namespace mcs;
using namespace mcs::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// One round of the simulator's characteristic queue workload: schedule a
/// burst at epoch-quantized times (forcing FIFO ties), cancel a few live
/// events (retimed completions), drain everything due. Runs the identical
/// seeded sequence against any queue via the three callbacks, so EventQueue
/// and the reference oracle see the same operations.
template <typename Schedule, typename Cancel, typename DrainUpTo>
void run_epoch_mix(int rounds, Schedule&& schedule, Cancel&& cancel,
                   DrainUpTo&& drain_up_to) {
    constexpr SimTime kEpoch = 10'000;
    Rng rng(2026);
    std::vector<std::uint64_t> live;
    SimTime now = 0;
    // 16 events/round due within 64 epochs: steady-state pending ~1e3,
    // the population a mid-size chip's task/test/controller events hold.
    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < 16; ++i) {
            live.push_back(schedule(now + kEpoch * (1 + rng.index(64))));
        }
        for (int i = 0; i < 4 && !live.empty(); ++i) {
            const std::size_t j = rng.index(live.size());
            cancel(live[j]);
            live[j] = live.back();
            live.pop_back();
        }
        now += kEpoch;
        drain_up_to(now);
    }
    drain_up_to(kEpoch * static_cast<SimTime>(rounds + 64));
}

/// FNV-1a over the pop stream, folded to 32 bits so the value is exact in
/// the report's double.
struct PopHash {
    Fnv1a h;
    void add(SimTime when, std::uint64_t seq) {
        h.u64(static_cast<std::uint64_t>(when));
        h.u64(seq);
    }
    double folded() const {
        const std::uint64_t v = h.value();
        return static_cast<double>((v ^ (v >> 32)) & 0xFFFFFFFFULL);
    }
};

}  // namespace

int main(int argc, char** argv) {
    const BenchOptions opt = parse_options(argc, argv);
    print_header("H1 (gate): hot-path state",
                 "event-queue order and a full run's work counters stay "
                 "fixed");
    BenchReport report("hot_paths", opt);
    const int kRounds = opt.quick ? 2'000 : 20'000;

    // --- 1. Full-system run: work counters + cancel accounting ----------
    {
        SystemConfig cfg = base_config(17);
        cfg.scheduler = SchedulerKind::PowerAware;
        set_occupancy(cfg, 0.6);
        ManycoreSystem sys(cfg);
        // Quick horizon of 2 s: long enough for the criticality warm-up to
        // start completing test sessions, so the gate pins a non-zero
        // tests_completed even in CI smoke mode.
        const RunMetrics m = sys.run(horizon(opt, 6.0, 2.0));
        report.metric("run.tests_completed",
                      static_cast<double>(m.tests_completed));
        report.metric("run.tests_aborted",
                      static_cast<double>(m.tests_aborted));
        report.metric("run.apps_completed",
                      static_cast<double>(m.apps_completed));
        report.metric("run.events_executed",
                      static_cast<double>(sys.simulator().events_executed()));
        report.metric("run.events_cancelled",
                      static_cast<double>(sys.simulator().events_cancelled()));
        report.metric(
            "run.mapping_chip_scans",
            static_cast<double>(sys.workload_engine().chip_scans()));
    }

    // --- 2. Event-queue mix: deterministic order + advisory wall --------
    {
        EventQueue q;
        PopHash hash;
        std::uint64_t popped = 0;
        // pop() returns (time, callback); the callback carries its own seq
        // so the hash records payload identity -- FIFO within a tie is
        // observable, not just the timestamp order.
        std::uint64_t cur_seq = 0;
        const auto t0 = std::chrono::steady_clock::now();
        run_epoch_mix(
            kRounds,
            [&](SimTime when) {
                const std::uint64_t seq = q.next_seq();
                q.schedule(when, [seq, &cur_seq] { cur_seq = seq; });
                return seq;
            },
            [&](std::uint64_t seq) { q.cancel(EventId{seq}); },
            [&](SimTime now) {
                while (!q.empty() && q.next_time() <= now) {
                    const auto [when, cb] = q.pop();
                    cb();
                    hash.add(when, cur_seq);
                    ++popped;
                }
            });
        report.aux("wall", "eq_queue_s", seconds_since(t0));
        report.metric("eq.pop_hash", hash.folded());
        report.metric("eq.popped", static_cast<double>(popped));
        report.metric("eq.cancelled",
                      static_cast<double>(q.cancelled_count()));
    }
    {
        // Pop-order oracle, independent of EventQueue: a std::priority_queue
        // of (when, seq) plus a seq -> when index, with lazy cancellation
        // (tombstones stay in the heap until they surface). Not timed.
        using Entry = std::pair<SimTime, std::uint64_t>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
            heap;
        std::unordered_map<std::uint64_t, SimTime> index;
        std::uint64_t next_seq = 1;
        std::uint64_t popped = 0;
        PopHash hash;
        run_epoch_mix(
            kRounds,
            [&](SimTime when) {
                heap.emplace(when, next_seq);
                index.emplace(next_seq, when);
                return next_seq++;
            },
            [&](std::uint64_t seq) { index.erase(seq); },
            [&](SimTime now) {
                while (!heap.empty() && heap.top().first <= now) {
                    const auto [when, seq] = heap.top();
                    heap.pop();
                    if (index.erase(seq) == 0) continue;  // tombstone
                    hash.add(when, seq);
                    ++popped;
                }
            });
        // Same ops, same order: the oracle must reproduce EventQueue's pop
        // stream exactly.
        report.metric("eq.ref_pop_hash", hash.folded());
        report.metric("eq.ref_popped", static_cast<double>(popped));
    }

    report.write();
    return 0;
}
