// Deterministic discrete-event simulator.
//
// This is the substrate substituting for the paper's physical cluster: all
// nodes, clients, NICs and links live inside one Simulator.  Events fire in
// (time, insertion-order) order, so runs are bit-reproducible for a given
// seed.  The simulator is strictly single-threaded; node-level parallelism
// (the 8 cores of the paper's Xeons) is modeled by sim::CpuCore, not by OS
// threads.
//
// Pending events live in one sim::EventQueue, a binary heap held by value
// (see eventqueue.hpp for its ordering and cancellation invariants).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "sim/eventqueue.hpp"

namespace rbft::obs::prof {
class Profiler;
struct ZoneStats;
}  // namespace rbft::obs::prof

namespace rbft {
class Logger;
}

namespace rbft::sim {

/// Identifies a scheduled event so protocol timers can be cancelled.
enum class EventId : std::uint64_t {};

class Simulator {
public:
    /// Scheduled closures are move-only with a 64-byte inline buffer, so
    /// scheduling a protocol lambda does not allocate (std::function's
    /// 16-byte buffer spilled nearly every capture to the heap).
    using Action = sim::Action;

    /// Current simulated time.
    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `action` at absolute time `t` (clamped to now if in the
    /// past).  Returns an id usable with cancel().
    EventId schedule_at(TimePoint t, Action action);

    /// Schedules `action` after `delay` from now.
    EventId schedule_after(Duration delay, Action action) {
        return schedule_at(now_ + delay, std::move(action));
    }

    /// Cancels a pending event.  Cancelling an already-fired or unknown
    /// event is a no-op (protocol code often races timers against replies).
    void cancel(EventId id) { (void)queue_.cancel(static_cast<std::uint64_t>(id)); }

    /// Runs events until the queue drains or `limit` is reached; the clock
    /// ends at min(limit, last event time).  Returns the number of events
    /// dispatched.
    std::uint64_t run_until(TimePoint limit);

    /// Runs for `d` more simulated time.
    std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

    /// Drains the queue completely (use only in tests with finite event
    /// chains; live protocols reschedule timers forever).
    std::uint64_t run_all();

    /// Number of live pending events (scheduled, not yet fired, not
    /// cancelled).  Cancellation is accounted eagerly, never lazily.
    [[nodiscard]] std::size_t pending() const noexcept { return queue_.live(); }

    /// Due time of the earliest live event, or nullopt when the queue holds
    /// nothing runnable.  This is the seam the wall-clock runtime
    /// (src/runtime) uses to turn the deterministic event queue into real
    /// poll() deadlines.
    [[nodiscard]] std::optional<TimePoint> next_event_time() { return queue_.next_event_time(); }

    /// Total events dispatched over the simulator's lifetime.
    [[nodiscard]] std::uint64_t dispatched_total() const noexcept { return dispatched_total_; }

    /// Attaches observability: per-dispatch event counting into `registry`
    /// ("sim.events_dispatched", "sim.events_scheduled") plus a
    /// "sim.queue_depth" high-water gauge.  Null detaches.
    void set_metrics(obs::MetricsRegistry* registry) {
        scheduled_counter_ = registry ? registry->counter("sim.events_scheduled") : nullptr;
        dispatched_counter_ = registry ? registry->counter("sim.events_dispatched") : nullptr;
        queue_depth_gauge_ = registry ? registry->gauge("sim.queue_depth") : nullptr;
        if (queue_depth_gauge_) queue_depth_gauge_->set(static_cast<double>(queue_high_water_));
    }

    /// Attaches the hot-path profiler (nullable): wraps every dispatched
    /// action in a "sim.dispatch" zone and mirrors the schedule/dispatch
    /// counters into the profile's deterministic block.
    void set_profiler(obs::prof::Profiler* profiler);

    /// Deepest the live pending-event count has ever been.
    [[nodiscard]] std::size_t queue_high_water() const noexcept { return queue_high_water_; }

    /// Attaches the run's logger (nullable, like the recorder): components
    /// holding a Simulator& log through it, so concurrent simulations never
    /// share logging state.  Null (the default) disables logging.
    void set_logger(Logger* logger) noexcept { logger_ = logger; }
    [[nodiscard]] Logger* logger() const noexcept { return logger_; }

private:
    /// Advances the clock to `at` and runs `action` inside the
    /// "sim.dispatch" zone (root-zone fast path when un-nested).
    void dispatch(TimePoint at, Action& action);

    TimePoint now_{};
    std::uint64_t dispatched_total_ = 0;
    Logger* logger_ = nullptr;
    obs::Counter* scheduled_counter_ = nullptr;
    obs::Counter* dispatched_counter_ = nullptr;
    obs::Gauge* queue_depth_gauge_ = nullptr;
    obs::prof::Profiler* profiler_ = nullptr;
    obs::Counter* prof_scheduled_ = nullptr;
    obs::Counter* prof_dispatched_ = nullptr;
    obs::prof::ZoneStats* dispatch_stats_ = nullptr;  // lazily resolved root-zone handle
    const std::string* dispatch_path_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::size_t queue_high_water_ = 0;
    EventQueue queue_;
};

}  // namespace rbft::sim
