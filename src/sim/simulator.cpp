#include "sim/simulator.hpp"

#include "util/require.hpp"

namespace mcs {

EventId Simulator::schedule_at(SimTime when, EventQueue::Callback cb,
                               EventRecord record) {
    MCS_REQUIRE(when >= now_, "cannot schedule into the past");
    return queue_.schedule(when, std::move(cb), record);
}

EventId Simulator::schedule_in(SimDuration delay, EventQueue::Callback cb,
                               EventRecord record) {
    return queue_.schedule(now_ + delay, std::move(cb), record);
}

void Simulator::every(SimDuration period, std::function<void(SimTime)> cb,
                      EventRecord record) {
    every(period, now_ + period, std::move(cb), record);
}

void Simulator::every(SimDuration period, SimTime first_at,
                      std::function<void(SimTime)> cb, EventRecord record) {
    MCS_REQUIRE(period > 0, "periodic period must be positive");
    MCS_REQUIRE(static_cast<bool>(cb), "periodic callback must be callable");
    MCS_REQUIRE(first_at >= now_, "first firing cannot be in the past");
    const std::size_t index = periodics_.size();
    periodics_.push_back(Periodic{period, std::move(cb), record});
    schedule_at(first_at, [this, index] { fire_periodic(index); }, record);
}

void Simulator::fire_periodic(std::size_t index) {
    const Periodic& p = periodics_[index];
    schedule_at(now_ + p.period, [this, index] { fire_periodic(index); },
                p.record);
    p.cb(now_);
}

std::uint64_t Simulator::advance_until(SimTime until) {
    std::uint64_t ran = 0;
    while (step(until)) {
        ++ran;
    }
    if (now_ < until) {
        now_ = until;
    }
    return ran;
}

void Simulator::restore_clock(SimTime now, std::uint64_t executed,
                              std::uint64_t cancelled) {
    MCS_REQUIRE(queue_.empty() && periodics_.empty() && now_ == 0 &&
                    executed_ == 0,
                "restore_clock requires a pristine simulator");
    now_ = now;
    executed_ = executed;
    queue_.restore_cancelled_count(cancelled);
}

bool Simulator::step(SimTime until) {
    if (queue_.empty() || queue_.next_time() > until) {
        return false;
    }
    auto [when, cb] = queue_.pop();
    MCS_REQUIRE(when >= now_, "event queue produced a past event");
    now_ = when;
    ++executed_;
    cb();
    return true;
}

}  // namespace mcs
