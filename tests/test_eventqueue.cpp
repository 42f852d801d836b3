// Differential tests for the simulator's event queue (tier 1).
//
// Randomized schedule/cancel/pop workloads are replayed against a naive
// sorted-vector oracle, and the heap must match it event-for-event —
// including FIFO tie-break among same-time events, next_event_time()
// agreement (the real-node runtime's poll deadline), and the eager
// live-count bookkeeping behind sim.queue_depth.  Targeted cases pin the
// lazy drop of cancelled entries and the generation-tagged ids.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/eventqueue.hpp"

namespace rbft::sim {
namespace {

// Deterministic xorshift so the fuzz schedule is reproducible (tests must
// not consult std::random_device / host entropy).
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
    std::uint64_t next() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Naive reference: a sorted vector popped from the front, cancelled by
/// erasing.  Obviously correct; quadratic; test-only.
class OracleQueue {
public:
    std::uint64_t schedule(TimePoint at, std::uint64_t seq, std::uint64_t payload) {
        const std::uint64_t id = next_id_++;
        events_.push_back(Entry{at, seq, id, payload});
        std::sort(events_.begin(), events_.end(), [](const Entry& a, const Entry& b) {
            if (a.at != b.at) return a.at < b.at;
            return a.seq < b.seq;
        });
        return id;
    }
    bool cancel(std::uint64_t id) {
        for (auto it = events_.begin(); it != events_.end(); ++it) {
            if (it->id == id) {
                events_.erase(it);
                return true;
            }
        }
        return false;
    }
    std::optional<std::uint64_t> pop_due(TimePoint limit, TimePoint& at_out) {
        if (events_.empty() || events_.front().at > limit) return std::nullopt;
        const Entry e = events_.front();
        events_.erase(events_.begin());
        at_out = e.at;
        return e.payload;
    }
    [[nodiscard]] std::optional<TimePoint> next_event_time() const {
        if (events_.empty()) return std::nullopt;
        return events_.front().at;
    }
    [[nodiscard]] std::size_t live() const { return events_.size(); }

private:
    struct Entry {
        TimePoint at;
        std::uint64_t seq;
        std::uint64_t id;
        std::uint64_t payload;
    };
    std::vector<Entry> events_;
    std::uint64_t next_id_ = 1;
};

/// Drives the queue and the oracle through an identical randomized
/// workload, checking agreement at every step.
void fuzz_against_oracle(std::uint64_t seed, int ops) {
    EventQueue queue;
    OracleQueue oracle;
    Rng rng(seed);

    std::uint64_t next_seq = 0;
    std::uint64_t next_payload = 0;
    TimePoint clock{};
    // Parallel id maps: cancelling the k-th oldest live handle must hit the
    // same event in both worlds.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> handles;  // {queue id, oracle id}

    std::vector<std::uint64_t> popped;  // payloads dispatched by `queue`

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 55) {
            // Schedule. Mix horizons: same-tick bursts, sub-millisecond,
            // sub-second and far-future (seconds) timers.
            const std::uint64_t h = rng.below(100);
            std::int64_t delta = 0;
            if (h < 25) {
                delta = static_cast<std::int64_t>(rng.below(4));  // same-time collisions
            } else if (h < 70) {
                delta = static_cast<std::int64_t>(rng.below(500'000));
            } else if (h < 92) {
                delta = static_cast<std::int64_t>(rng.below(200'000'000));
            } else {
                delta = static_cast<std::int64_t>(rng.below(4'000'000'000));
            }
            const TimePoint at{clock.ns + delta};
            const std::uint64_t seq = next_seq++;
            const std::uint64_t payload = next_payload++;
            const std::uint64_t qid =
                queue.schedule(at, seq, [payload, &popped] { popped.push_back(payload); });
            const std::uint64_t oid = oracle.schedule(at, seq, payload);
            handles.emplace_back(qid, oid);
        } else if (dice < 75) {
            // Cancel a random outstanding handle (may already have fired).
            if (!handles.empty()) {
                const std::size_t k = rng.below(handles.size());
                const bool q_hit = queue.cancel(handles[k].first);
                const bool o_hit = oracle.cancel(handles[k].second);
                EXPECT_EQ(q_hit, o_hit);
                handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
            }
        } else if (dice < 85) {
            // Made-up ids are always a no-op.
            EXPECT_FALSE(queue.cancel(0));
        } else {
            // Pop everything due within a random horizon.
            const TimePoint limit{clock.ns + static_cast<std::int64_t>(rng.below(2'000'000))};
            TimePoint at{};
            Action action;
            for (;;) {
                TimePoint oracle_at{};
                const auto expected = oracle.pop_due(limit, oracle_at);
                const bool got = queue.pop_due(limit, at, action);
                ASSERT_EQ(got, expected.has_value());
                if (!got) break;
                EXPECT_EQ(at.ns, oracle_at.ns);
                clock = at;
                const std::size_t before = popped.size();
                action();
                ASSERT_EQ(popped.size(), before + 1);
                EXPECT_EQ(popped.back(), *expected);
            }
            clock = limit;
        }
        ASSERT_EQ(queue.live(), oracle.live());
        const auto q_next = queue.next_event_time();
        const auto o_next = oracle.next_event_time();
        ASSERT_EQ(q_next.has_value(), o_next.has_value());
        if (q_next) {
            EXPECT_EQ(q_next->ns, o_next->ns);
        }
    }
}

TEST(EventQueue, HeapMatchesOracleAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE(seed);
        fuzz_against_oracle(seed, 1500);
    }
}

TEST(EventQueue, SameTimestampFifoOrder) {
    EventQueue queue;
    std::vector<int> order;
    // Same due time, interleaved with other times, scheduled out of order.
    queue.schedule(TimePoint{500}, 0, [&] { order.push_back(0); });
    queue.schedule(TimePoint{100}, 1, [&] { order.push_back(1); });
    queue.schedule(TimePoint{500}, 2, [&] { order.push_back(2); });
    queue.schedule(TimePoint{500}, 3, [&] { order.push_back(3); });
    queue.schedule(TimePoint{100}, 4, [&] { order.push_back(4); });
    TimePoint at{};
    Action action;
    while (queue.pop_due(TimePoint{1'000'000}, at, action)) action();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 0, 2, 3}));
}

TEST(EventQueue, FarFutureEventsCrossAllLevels) {
    // Timers from nanoseconds to half a second out, scheduled latest first
    // so each new one climbs the heap's levels; they must come back in
    // time order as the limit sweeps forward.
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(TimePoint{500'000'000}, 0, [&] { order.push_back(3); });
    queue.schedule(TimePoint{10'000'000}, 1, [&] { order.push_back(2); });
    queue.schedule(TimePoint{300'000}, 2, [&] { order.push_back(1); });
    queue.schedule(TimePoint{10}, 3, [&] { order.push_back(0); });
    TimePoint at{};
    Action action;
    for (std::int64_t limit = 0; limit <= 600'000'000; limit += 7'777'777) {
        while (queue.pop_due(TimePoint{limit}, at, action)) action();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(queue.live(), 0u);
}

TEST(EventQueue, CancelFarFutureEventIsLive) {
    // Cancelling a far-future event drops live() eagerly and
    // next_event_time() never reports it.
    EventQueue queue;
    const std::uint64_t id = queue.schedule(TimePoint{1'000'000'000}, 0, [] {});
    queue.schedule(TimePoint{2'000'000'000}, 1, [] {});
    EXPECT_EQ(queue.live(), 2u);
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_EQ(queue.live(), 1u);
    EXPECT_FALSE(queue.cancel(id));  // double-cancel is a no-op
    ASSERT_TRUE(queue.next_event_time().has_value());
    EXPECT_EQ(queue.next_event_time()->ns, 2'000'000'000);
    TimePoint at{};
    Action action;
    ASSERT_TRUE(queue.pop_due(TimePoint{3'000'000'000}, at, action));
    EXPECT_EQ(at.ns, 2'000'000'000);
    EXPECT_FALSE(queue.pop_due(TimePoint{3'000'000'000}, at, action));
}

TEST(EventQueue, IdReuseDoesNotCrossCancel) {
    // After an event fires, its (recycled) id must not cancel a newer event.
    EventQueue queue;
    const std::uint64_t first = queue.schedule(TimePoint{10}, 0, [] {});
    TimePoint at{};
    Action action;
    ASSERT_TRUE(queue.pop_due(TimePoint{100}, at, action));
    const std::uint64_t second = queue.schedule(TimePoint{200}, 1, [] {});
    EXPECT_EQ(first >> 32, second >> 32);  // same slot ...
    EXPECT_NE(first, second);              // ... next generation
    EXPECT_FALSE(queue.cancel(first));
    EXPECT_EQ(queue.live(), 1u);
    EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueue, CancelledEntryNeitherFiresNorDelaysSlotReuse) {
    // A cancelled event's heap entry outlives its slot.  When the slot is
    // reused (same index, next generation) by a later event, the stale
    // entry must not fire the new action at the old time, and must not
    // hold the new event back either.
    EventQueue queue;
    std::vector<int> fired;
    const std::uint64_t early = queue.schedule(TimePoint{10}, 0, [&] { fired.push_back(0); });
    ASSERT_TRUE(queue.cancel(early));
    const std::uint64_t reused = queue.schedule(TimePoint{20}, 1, [&] { fired.push_back(1); });
    ASSERT_EQ(early >> 32, reused >> 32);
    ASSERT_NE(early, reused);
    const std::uint64_t behind = queue.schedule(TimePoint{20}, 2, [&] { fired.push_back(2); });
    EXPECT_EQ(queue.live(), 2u);

    TimePoint at{};
    Action action;
    EXPECT_FALSE(queue.pop_due(TimePoint{15}, at, action));  // nothing is due at 10
    ASSERT_TRUE(queue.next_event_time().has_value());
    EXPECT_EQ(queue.next_event_time()->ns, 20);
    ASSERT_TRUE(queue.pop_due(TimePoint{20}, at, action));
    EXPECT_EQ(at.ns, 20);
    action();
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_FALSE(queue.cancel(reused));  // fired
    EXPECT_TRUE(queue.cancel(behind));
    EXPECT_FALSE(queue.pop_due(TimePoint{100}, at, action));
    EXPECT_EQ(queue.live(), 0u);
}

TEST(EventQueue, NextEventTimeDoesNotPerturbOrder) {
    // Peeking between every operation (which drops stale cancelled entries)
    // must not change what pops.
    EventQueue peeked;
    EventQueue plain;
    Rng rng(42);
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;  // {peeked id, plain id}
    std::uint64_t seq = 0;
    for (int i = 0; i < 300; ++i) {
        const std::int64_t delta = static_cast<std::int64_t>(rng.below(300'000'000));
        const std::uint64_t payload = seq;
        ids.emplace_back(
            peeked.schedule(TimePoint{delta}, seq, [payload, &a] { a.push_back(payload); }),
            plain.schedule(TimePoint{delta}, seq, [payload, &b] { b.push_back(payload); }));
        ++seq;
        if (rng.below(5) == 0) {
            const auto& victim = ids[rng.below(ids.size())];
            EXPECT_EQ(peeked.cancel(victim.first), plain.cancel(victim.second));
        }
        (void)peeked.next_event_time();
    }
    TimePoint at{};
    Action action;
    for (std::int64_t limit = 0; limit <= 300'000'000; limit += 999'999) {
        (void)peeked.next_event_time();
        while (peeked.pop_due(TimePoint{limit}, at, action)) {
            action();
            (void)peeked.next_event_time();
        }
        while (plain.pop_due(TimePoint{limit}, at, action)) action();
        ASSERT_EQ(a, b);
    }
    EXPECT_EQ(peeked.live(), 0u);
    EXPECT_EQ(plain.live(), 0u);
}

}  // namespace
}  // namespace rbft::sim
