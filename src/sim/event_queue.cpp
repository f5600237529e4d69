#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

EventId EventQueue::schedule(SimTime when, Callback cb, EventRecord record) {
    MCS_REQUIRE(static_cast<bool>(cb), "event callback must be callable");
    const std::uint64_t seq = next_seq_++;
    pending_.emplace(seq, Pending{when, std::move(cb), record});
    heap_.push_back(Key{when, seq});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return EventId{seq};
}

bool EventQueue::cancel(EventId id) {
    if (!id.valid() || pending_.erase(id.seq) == 0) {
        return false;
    }
    ++cancelled_;
    drop_stale_top();
    return true;
}

bool EventQueue::is_pending(EventId id) const {
    return id.valid() && pending_.count(id.seq) != 0;
}

SimTime EventQueue::next_time() const {
    MCS_REQUIRE(!empty(), "next_time on empty event queue");
    return heap_.front().when;
}

SimTime EventQueue::time_of(EventId id) const {
    const auto it = id.valid() ? pending_.find(id.seq) : pending_.end();
    MCS_REQUIRE(it != pending_.end(), "time_of on a non-pending event");
    return it->second.when;
}

std::vector<PendingRecord> EventQueue::pending_records() const {
    std::vector<PendingRecord> out;
    out.reserve(pending_.size());
    for (const auto& [seq, p] : pending_) {
        out.push_back({seq, p.when, p.record});
    }
    std::sort(out.begin(), out.end(),
              [](const PendingRecord& x, const PendingRecord& y) {
                  return x.seq < y.seq;
              });
    return out;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
    MCS_REQUIRE(!empty(), "pop on empty event queue");
    const auto it = pending_.find(heap_.front().seq);
    std::pair<SimTime, Callback> out{it->second.when, std::move(it->second.cb)};
    pending_.erase(it);
    drop_stale_top();
    return out;
}

void EventQueue::drop_stale_top() {
    while (!heap_.empty() && pending_.count(heap_.front().seq) == 0) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
    }
}

}  // namespace mcs
