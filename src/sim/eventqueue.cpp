#include "sim/eventqueue.hpp"

#include <algorithm>
#include <utility>

namespace rbft::sim {

namespace {

struct Later {
    template <typename E>
    bool operator()(const E& a, const E& b) const noexcept {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
    }
};

}  // namespace

std::uint64_t EventQueue::schedule(TimePoint at, std::uint64_t seq, Action action) {
    std::uint32_t idx = free_head_;
    if (idx != kNoSlot) {
        free_head_ = slots_[idx].next_free;
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.action = std::move(action);
    heap_.push_back(Entry{at, seq, idx, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return (static_cast<std::uint64_t>(idx) << 32) | s.gen;
}

void EventQueue::release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.action.reset();
    if (++s.gen == 0) s.gen = 1;  // ids embed gen; 0 stays the invalid id
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
}

bool EventQueue::cancel(std::uint64_t id) {
    const auto idx = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    // A released slot's gen has moved past every id issued for it.
    if (idx >= slots_.size() || slots_[idx].gen != gen) return false;
    release(idx);  // its heap entry is now stale and dropped at the top
    return true;
}

void EventQueue::drop_stale_top() {
    while (!heap_.empty() && slots_[heap_.front().slot].gen != heap_.front().gen) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

bool EventQueue::pop_due(TimePoint limit, TimePoint& at_out, Action& action_out) {
    drop_stale_top();
    if (heap_.empty() || heap_.front().at > limit) return false;
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    at_out = top.at;
    action_out = std::move(slots_[top.slot].action);
    release(top.slot);
    return true;
}

std::optional<TimePoint> EventQueue::next_event_time() {
    drop_stale_top();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
}

}  // namespace rbft::sim
