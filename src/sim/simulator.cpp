#include "sim/simulator.hpp"

#include <limits>
#include <utility>

#include "obs/prof.hpp"

namespace rbft::sim {

EventId Simulator::schedule_at(TimePoint t, Action action) {
    if (scheduled_counter_) scheduled_counter_->add();
    if (prof_scheduled_) prof_scheduled_->add();
    if (t < now_) t = now_;
    const std::uint64_t id = queue_.schedule(t, next_seq_++, std::move(action));
    if (const std::size_t live = queue_.live(); live > queue_high_water_) {
        queue_high_water_ = live;
        if (queue_depth_gauge_) queue_depth_gauge_->set(static_cast<double>(queue_high_water_));
    }
    return EventId{id};
}

void Simulator::set_profiler(obs::prof::Profiler* profiler) {
    profiler_ = profiler;
    prof_scheduled_ = profiler ? profiler->counter("sim.events_scheduled") : nullptr;
    prof_dispatched_ = profiler ? profiler->counter("sim.events_dispatched") : nullptr;
    // The "sim.dispatch" root-zone handle resolves lazily on first dispatch,
    // so attaching a profiler to an idle simulator records no zones.
    dispatch_stats_ = nullptr;
    dispatch_path_ = nullptr;
}

namespace {

/// RAII exit for the root-zone fast path (keeps zone pairing exception-safe
/// without Scope's name lookup).
struct RootExit {
    obs::prof::Profiler* profiler;
    ~RootExit() { profiler->exit(); }
};

}  // namespace

void Simulator::dispatch(TimePoint at, Action& action) {
    now_ = at;
    if (profiler_ == nullptr) {
        action();
    } else if (profiler_->open_depth() == 0) {
        if (dispatch_stats_ == nullptr) {
            const auto handle = profiler_->root_zone("sim.dispatch");
            dispatch_stats_ = handle.stats;
            dispatch_path_ = handle.path;
        }
        profiler_->enter_root(obs::prof::Profiler::ZoneHandle{dispatch_stats_, dispatch_path_});
        RootExit exit{profiler_};
        action();
    } else {
        // Nested run_until (a dispatched action running the simulator):
        // fall back to the generic path-building enter.
        obs::prof::Scope zone(profiler_, "sim.dispatch");
        action();
    }
    ++dispatched_total_;
    if (dispatched_counter_) dispatched_counter_->add();
    if (prof_dispatched_) prof_dispatched_->add();
}

std::uint64_t Simulator::run_until(TimePoint limit) {
    std::uint64_t dispatched = 0;
    TimePoint at{};
    Action action;
    while (queue_.pop_due(limit, at, action)) {
        dispatch(at, action);
        ++dispatched;
    }
    if (now_ < limit) now_ = limit;
    return dispatched;
}

std::uint64_t Simulator::run_all() {
    constexpr TimePoint kForever{std::numeric_limits<std::int64_t>::max()};
    std::uint64_t dispatched = 0;
    TimePoint at{};
    Action action;
    while (queue_.pop_due(kForever, at, action)) {
        dispatch(at, action);
        ++dispatched;
    }
    return dispatched;
}

}  // namespace rbft::sim
