#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mcs {

/// Handle to a scheduled event; can be used to cancel it.
struct EventId {
    std::uint64_t seq = 0;
    bool valid() const noexcept { return seq != 0; }
};

/// What a pending event is, in terms its scheduler can re-create it from:
/// a kind name (a string literal; null when the event has no record) and
/// two small kind-specific arguments. Opaque to the queue, which only
/// stores it beside the callback and lists it back.
struct EventRecord {
    const char* kind = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool is(std::string_view name) const noexcept {
        return kind != nullptr && name == kind;
    }
};

/// One entry of EventQueue::pending_records().
struct PendingRecord {
    std::uint64_t seq = 0;
    SimTime when = 0;
    EventRecord record;
};

/// Time-ordered event queue: a binary min-heap of (when, seq) keys plus a
/// seq -> {when, callback, record} map. Pop order is strict ascending
/// (when, seq), so ties break in scheduling order (FIFO at equal
/// timestamps), which keeps simulations deterministic. Each entry carries
/// the EventRecord it was scheduled with, so the queue itself is the list
/// of what is pending (the snapshot manifest is read from it).
///
/// cancel() erases the map entry, which destroys the callback at once; the
/// cancelled key stays in the heap until it reaches the top, where pop() and
/// cancel() drop it. The top key is therefore always pending, so
/// `next_time()` is O(1). `cancelled_count()` reports lifetime
/// cancellations for telemetry.
class EventQueue {
public:
    using Callback = std::function<void()>;

    /// Schedules `cb` at absolute time `when`, carrying `record`. Returns a
    /// cancellation handle.
    EventId schedule(SimTime when, Callback cb, EventRecord record = {});

    /// Cancels a pending event and destroys its callback. Cancelling an
    /// already-fired or already-cancelled event is a no-op. Returns true if
    /// the event was pending.
    bool cancel(EventId id);

    /// True if the given event is still pending (scheduled, not fired, not
    /// cancelled).
    bool is_pending(EventId id) const;

    bool empty() const noexcept { return pending_.empty(); }
    std::size_t pending() const noexcept { return pending_.size(); }

    /// Time of the earliest pending event. Requires !empty().
    SimTime next_time() const;

    /// Absolute time of a pending event. Requires is_pending(id).
    SimTime time_of(EventId id) const;

    /// Sequence number the NEXT schedule() call will assign.
    std::uint64_t next_seq() const noexcept { return next_seq_; }

    /// Every pending event's (seq, when, record), in ascending seq.
    std::vector<PendingRecord> pending_records() const;

    /// Pops the earliest pending event and returns (time, callback).
    /// Requires !empty().
    std::pair<SimTime, Callback> pop();

    /// Lifetime count of successful cancel() calls.
    std::uint64_t cancelled_count() const noexcept { return cancelled_; }
    /// Overwrites the cancellation count from a checkpoint.
    void restore_cancelled_count(std::uint64_t n) noexcept { cancelled_ = n; }

private:
    struct Key {
        SimTime when;
        std::uint64_t seq;
        auto operator<=>(const Key&) const = default;
    };
    struct Pending {
        SimTime when;
        Callback cb;
        EventRecord record;
    };

    /// Pops keys whose entry is gone (fired or cancelled) until the top key
    /// is pending or the heap is empty.
    void drop_stale_top();

    std::vector<Key> heap_;  // min-heap under std::greater<>
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t cancelled_ = 0;
};

}  // namespace mcs
