// The deterministic simulator's pending-event store.
//
// A binary min-heap of small (at, seq, slot, gen) entries over a pool of
// action slots.  Invariants (see DESIGN.md §8):
//
//  - Events dispatch strictly in (time, seq) order, where `seq` is the
//    caller's monotonically increasing insertion counter, so same-time
//    events fire FIFO.
//  - live() is eager: the number of events scheduled but neither fired nor
//    cancelled.  cancel() releases the event's slot (and its action's
//    captures) at once; the sim.queue_depth gauge reads live().
//  - Ids are (slot << 32) | gen.  A slot's generation is bumped whenever it
//    is released, so an id outlives neither its event nor a reuse of its
//    slot: cancelling a fired or cancelled event is a no-op.
//  - A cancelled event's heap entry stays behind and is dropped lazily when
//    it reaches the top (its gen no longer matches the slot's), so it can
//    neither fire nor delay a later event that reuses the slot.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/smallfn.hpp"
#include "common/time.hpp"

namespace rbft::sim {

/// Scheduled closure.  SmallFunc's 64-byte inline buffer fits every
/// protocol/network lambda in the tree, so scheduling does not allocate.
using Action = common::SmallFunc<64>;

class EventQueue {
public:
    /// Enqueues `action` at `at` with tie-break counter `seq` (strictly
    /// increasing across calls; the caller owns the counter).  Returns a
    /// nonzero cancellation id.
    std::uint64_t schedule(TimePoint at, std::uint64_t seq, Action action);

    /// Cancels a pending event.  Returns true iff `id` named a live
    /// (scheduled, unfired, uncancelled) event.
    bool cancel(std::uint64_t id);

    /// Extracts the earliest live event if its due time is <= `limit`.
    bool pop_due(TimePoint limit, TimePoint& at_out, Action& action_out);

    /// Due time of the earliest live event, without dispatching it (the
    /// wall-clock runtime polls this).
    std::optional<TimePoint> next_event_time();

    /// Number of live events (scheduled − fired − cancelled).
    [[nodiscard]] std::size_t live() const noexcept { return live_; }

private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    struct Entry {
        TimePoint at{};
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };
    struct Slot {
        Action action;
        std::uint32_t next_free = 0;
        std::uint32_t gen = 1;  // bumped on release; 0 stays the invalid id
    };

    void release(std::uint32_t slot);
    void drop_stale_top();  // pops cancelled entries off the heap top

    std::vector<Entry> heap_;  // min-heap by (at, seq)
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;
    std::size_t live_ = 0;
};

}  // namespace rbft::sim
