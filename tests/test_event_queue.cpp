#include "sim/event_queue.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) {
        auto [t, cb] = q.pop();
        cb();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        q.schedule(5, [&, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        q.pop().second();
    }
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoop) {
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.pop().second();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredWhileOthersPendingKeepsCount) {
    EventQueue q;
    const EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.pop();  // fires a
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.cancel(a));  // a already fired
    EXPECT_EQ(q.pending(), 1u);  // count must not be corrupted
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{}));
    EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, IsPendingTracksLifecycle) {
    EventQueue q;
    const EventId id = q.schedule(5, [] {});
    EXPECT_TRUE(q.is_pending(id));
    q.pop();
    EXPECT_FALSE(q.is_pending(id));
    const EventId id2 = q.schedule(5, [] {});
    q.cancel(id2);
    EXPECT_FALSE(q.is_pending(id2));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
    EventQueue q;
    const EventId early = q.schedule(1, [] {});
    q.schedule(10, [] {});
    q.cancel(early);
    EXPECT_EQ(q.next_time(), 10u);
}

TEST(EventQueue, EmptyAccessorsThrow) {
    EventQueue q;
    EXPECT_THROW(q.pop(), RequireError);
    EXPECT_THROW(q.next_time(), RequireError);
}

TEST(EventQueue, NullCallbackRejected) {
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback{}), RequireError);
}

TEST(EventQueue, PendingCountTracksScheduleAndCancel) {
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
    }
    EXPECT_EQ(q.pending(), 100u);
    for (int i = 0; i < 50; ++i) {
        q.cancel(ids[static_cast<std::size_t>(2 * i)]);
    }
    EXPECT_EQ(q.pending(), 50u);
    int fired = 0;
    while (!q.empty()) {
        q.pop();
        ++fired;
    }
    EXPECT_EQ(fired, 50);
}

// Property test: random schedule/cancel/pop sequences match a reference
// model (multimap ordered by (time, seq)).
class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
    Rng rng(GetParam());
    EventQueue q;
    // Reference: (time, seq) -> alive.
    std::map<std::pair<SimTime, std::uint64_t>, bool> model;
    std::vector<std::pair<EventId, std::pair<SimTime, std::uint64_t>>> handles;
    std::uint64_t seq = 0;
    SimTime clock = 0;
    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.5) {
            const SimTime t = clock + rng.uniform_int(0, 1000);
            const EventId id = q.schedule(t, [] {});
            model[{t, ++seq}] = true;
            handles.push_back({id, {t, seq}});
        } else if (action < 0.7 && !handles.empty()) {
            const auto& h = handles[rng.index(handles.size())];
            const bool q_did = q.cancel(h.first);
            auto it = model.find(h.second);
            const bool model_did = it != model.end() && it->second;
            EXPECT_EQ(q_did, model_did);
            if (model_did) {
                it->second = false;
            }
        } else if (!q.empty()) {
            // Pop the earliest; reference must agree on the timestamp.
            auto alive = model.begin();
            while (alive != model.end() && !alive->second) {
                ++alive;
            }
            ASSERT_NE(alive, model.end());
            const auto [t, cb] = q.pop();
            EXPECT_EQ(t, alive->first.first);
            EXPECT_GE(t, clock);
            clock = t;
            alive->second = false;
        }
        // Erase dead prefix from the model to mirror q's ground truth size.
        std::size_t model_alive = 0;
        for (const auto& [k, alive_flag] : model) {
            model_alive += alive_flag ? 1 : 0;
        }
        ASSERT_EQ(q.pending(), model_alive);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(EventQueue, CancelDestroysCallbackAtOnce) {
    EventQueue q;
    auto token = std::make_shared<int>(0);
    q.schedule(5, [] {});  // keeps the cancelled key below the heap top
    const EventId id = q.schedule(10, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(q.cancel(id));
    // The cancelled key may linger in the heap, but not its callback.
    EXPECT_EQ(token.use_count(), 1);
    q.schedule(20, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    q.pop();
    q.pop();  // the returned callback is the only copy; it dies here
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.cancelled_count(), 1u);
}

TEST(EventQueue, CancelledCountRestores) {
    EventQueue q;
    q.cancel(q.schedule(5, [] {}));
    EXPECT_EQ(q.cancelled_count(), 1u);
    q.restore_cancelled_count(42);
    EXPECT_EQ(q.cancelled_count(), 42u);
    q.cancel(q.schedule(6, [] {}));
    EXPECT_EQ(q.cancelled_count(), 43u);
}

// Determinism property test: randomized schedule/cancel interleavings at
// epoch-quantized timestamps (many equal-time ties), then the FULL pop
// order -- including FIFO order within a timestamp, witnessed by payload
// identity -- must match a reference heap model ordered by (when, seq).
class EventQueueDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDeterminism, PopOrderMatchesReferenceHeap) {
    Rng rng(GetParam());
    constexpr SimTime kEpoch = 1000;  // quantum: forces heavy tie-breaking
    EventQueue q;
    std::vector<int> popped;
    // Reference model: (when, seq) -> payload, std::map iteration order is
    // exactly the strict (when, seq) pop order the queue promises.
    std::map<std::pair<SimTime, std::uint64_t>, int> model;
    std::vector<std::pair<EventId, std::pair<SimTime, std::uint64_t>>> live;
    SimTime clock = 0;
    int payload = 0;
    for (int step = 0; step < 4000; ++step) {
        const double action = rng.uniform();
        if (action < 0.55) {
            // Epoch-quantized: land on one of the next few epoch marks.
            const SimTime t =
                (clock / kEpoch + 1 + rng.uniform_int(0, 4)) * kEpoch;
            const int p = payload++;
            const std::uint64_t seq = q.next_seq();
            const EventId id = q.schedule(t, [&popped, p] {
                popped.push_back(p);
            });
            EXPECT_EQ(id.seq, seq);  // next_seq() predicted the assignment
            model[{t, seq}] = p;
            live.push_back({id, {t, seq}});
        } else if (action < 0.75 && !live.empty()) {
            const std::size_t pick = rng.index(live.size());
            const auto [id, key] = live[pick];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
            EXPECT_TRUE(q.cancel(id));
            model.erase(key);
        } else if (!q.empty()) {
            auto ref = model.begin();
            const auto [t, cb] = q.pop();
            ASSERT_EQ(t, ref->first.first);
            cb();
            ASSERT_FALSE(popped.empty());
            // Payload identity proves FIFO within the shared timestamp.
            ASSERT_EQ(popped.back(), ref->second);
            clock = t;
            model.erase(ref);
            std::erase_if(live, [&](const auto& h) {
                return !q.is_pending(h.first);
            });
        }
        ASSERT_EQ(q.pending(), model.size());
    }
    // Drain: the remaining pop order must equal the model's key order.
    while (!q.empty()) {
        auto ref = model.begin();
        const auto [t, cb] = q.pop();
        ASSERT_EQ(t, ref->first.first);
        cb();
        ASSERT_EQ(popped.back(), ref->second);
        model.erase(ref);
    }
    EXPECT_TRUE(model.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDeterminism,
                         ::testing::Values(7u, 99u, 2026u, 31337u));

// Snapshot-style rebuild: replaying the pending manifest in ascending
// captured-seq order into a fresh queue (fresh seqs) preserves the pop
// order, and next_seq() advances contiguously -- the contract the snapshot
// restore path (core/snapshot.cpp) relies on.
TEST(EventQueue, ManifestReplayPreservesOrderAndSeqContinuity) {
    Rng rng(77);
    EventQueue q;
    std::vector<std::pair<EventId, int>> handles;
    int payload = 0;
    for (int i = 0; i < 500; ++i) {
        const SimTime t = (1 + rng.uniform_int(0, 19)) * 1000;
        const int p = payload++;
        handles.push_back({q.schedule(t, [p] {}), p});
    }
    for (int i = 0; i < 500; i += 3) {
        q.cancel(handles[static_cast<std::size_t>(i)].first);
    }
    for (int i = 0; i < 100 && !q.empty(); ++i) {
        q.pop();
    }
    // Capture the manifest: pending events in ascending seq order (handles
    // were pushed in schedule order, i.e. ascending seq).
    std::vector<std::pair<SimTime, std::uint64_t>> manifest;
    for (const auto& [id, p] : handles) {
        if (q.is_pending(id)) {
            manifest.push_back({q.time_of(id), id.seq});
        }
    }
    // Replay into a fresh queue; restored seqs are fresh but ascending in
    // captured-seq order, so the (when, seq) pop order is preserved.
    EventQueue restored;
    std::uint64_t expect_seq = restored.next_seq();
    for (const auto& [when, old_seq] : manifest) {
        const EventId id = restored.schedule(when, [] {});
        EXPECT_EQ(id.seq, expect_seq);  // contiguous assignment
        ++expect_seq;
    }
    EXPECT_EQ(restored.next_seq(), expect_seq);
    EXPECT_EQ(restored.pending(), manifest.size());
    // Both queues drain in the same (when, original capture order).
    std::size_t at = 0;
    std::sort(manifest.begin(), manifest.end());
    while (!q.empty()) {
        const SimTime t_old = q.pop().first;
        const SimTime t_new = restored.pop().first;
        ASSERT_EQ(t_old, t_new);
        ASSERT_EQ(t_old, manifest[at].first);
        ++at;
    }
    EXPECT_TRUE(restored.empty());
}

// A large population drained almost empty keeps pop order strict
// (when, seq) throughout.
TEST(EventQueue, LargePopulationPopsInOrder) {
    Rng rng(5150);
    EventQueue q;
    std::map<std::pair<SimTime, std::uint64_t>, bool> model;
    for (int i = 0; i < 5000; ++i) {
        const SimTime t = (1 + rng.uniform_int(0, 99)) * 500;
        const EventId id = q.schedule(t, [] {});
        model[{t, id.seq}] = true;
    }
    SimTime last = 0;
    std::uint64_t last_seq = 0;
    for (int i = 0; i < 4900; ++i) {
        auto ref = model.begin();
        const auto [t, cb] = q.pop();
        ASSERT_EQ(t, ref->first.first);
        ASSERT_TRUE(t > last || (t == last && ref->first.second > last_seq));
        last = t;
        last_seq = ref->first.second;
        model.erase(ref);
    }
    while (!q.empty()) {
        auto ref = model.begin();
        ASSERT_EQ(q.pop().first, ref->first.first);
        model.erase(ref);
    }
}

}  // namespace
}  // namespace mcs
