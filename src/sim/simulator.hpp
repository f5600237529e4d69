#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mcs {

/// Discrete-event simulator: a clock plus an event queue plus periodic
/// processes. Single-threaded by design; all model state is advanced from
/// event callbacks.
class Simulator {
public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    SimTime now() const noexcept { return now_; }

    /// Schedules `cb` at absolute simulated time `when >= now()`. `record`
    /// names the event for snapshots (see EventRecord).
    EventId schedule_at(SimTime when, EventQueue::Callback cb,
                        EventRecord record = {});

    /// Schedules `cb` after `delay` from now.
    EventId schedule_in(SimDuration delay, EventQueue::Callback cb,
                        EventRecord record = {});

    bool cancel(EventId id) { return queue_.cancel(id); }
    bool is_pending(EventId id) const { return queue_.is_pending(id); }

    /// Registers a periodic process firing every `period` starting at
    /// `first_at` (defaults to `period` from now). The callback receives the
    /// current time. Each firing schedules the next one, carrying `record`,
    /// before the callback runs; a periodic runs for the simulator's
    /// lifetime.
    void every(SimDuration period, std::function<void(SimTime)> cb,
               EventRecord record = {});
    void every(SimDuration period, SimTime first_at,
               std::function<void(SimTime)> cb, EventRecord record = {});

    /// Runs events until the queue is empty or the clock would pass `until`.
    /// The clock is left at `until` (never moved backwards). Returns the
    /// number of events executed.
    std::uint64_t advance_until(SimTime until);

    /// Executes the single next event if there is one and it is at or before
    /// `until`. Returns whether an event ran.
    bool step(SimTime until);

    bool idle() const noexcept { return queue_.empty(); }
    std::size_t pending_events() const noexcept { return queue_.pending(); }
    std::uint64_t events_executed() const noexcept { return executed_; }
    /// Lifetime count of cancelled events (exported to the metrics
    /// registry as `sim.events_cancelled` at finalize).
    std::uint64_t events_cancelled() const noexcept {
        return queue_.cancelled_count();
    }

    // ---- snapshot support -------------------------------------------------
    // Capture lists the pending records; restore rebuilds the queue in the
    // captured relative order, then fast-forwards the clock.

    /// Every pending event's (seq, when, record), in ascending seq.
    std::vector<PendingRecord> pending_records() const {
        return queue_.pending_records();
    }

    /// Fast-forwards a freshly constructed simulator to a checkpointed
    /// clock and its lifetime executed/cancelled counts. Requires that
    /// nothing has been scheduled or executed yet.
    void restore_clock(SimTime now, std::uint64_t executed,
                       std::uint64_t cancelled);

private:
    struct Periodic {
        SimDuration period;
        std::function<void(SimTime)> cb;
        EventRecord record;
    };
    void fire_periodic(std::size_t index);

    EventQueue queue_;
    SimTime now_ = 0;
    std::uint64_t executed_ = 0;
    /// A deque, so a callback may register another periodic without moving
    /// the one that is running.
    std::deque<Periodic> periodics_;
};

}  // namespace mcs
