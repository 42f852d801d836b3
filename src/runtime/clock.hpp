// Wall-clock abstraction for the real-node runtime.
//
// src/runtime is the one subsystem allowed to read the machine clock (the
// determinism rule of tests/test_source_rules.cpp does not gate it);
// everything above it keeps speaking
// sim-time (TimePoint = nanoseconds since process start).  Tests inject a
// FakeClock to make reconnect/backoff schedules and timer dispatch
// deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/time.hpp"

namespace rbft::runtime {

/// Monotonic wall-clock source.  `now()` is expressed in the runtime's
/// sim-time coordinates: nanoseconds since the clock was created, so a
/// freshly started process and a fresh simulator agree that t=0 is "start".
class Clock {
public:
    virtual ~Clock() = default;
    [[nodiscard]] virtual TimePoint now() = 0;
    /// Blocks the calling thread for up to `d` (no-op in fakes).
    virtual void sleep_for(Duration d) = 0;
};

/// The real thing: std::chrono::steady_clock rebased to construction time.
class SteadyClock final : public Clock {
public:
    SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

    [[nodiscard]] TimePoint now() override {
        const auto elapsed = std::chrono::steady_clock::now() - epoch_;
        return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()};
    }

    void sleep_for(Duration d) override {
        if (d.ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d.ns));
    }

private:
    std::chrono::steady_clock::time_point epoch_;
};

/// Test double: time moves only when told to.  sleep_for() advances the
/// clock instead of blocking, so backoff schedules run at test speed.
class FakeClock final : public Clock {
public:
    [[nodiscard]] TimePoint now() override { return now_; }
    void sleep_for(Duration d) override { advance(d); }

    void advance(Duration d) {
        if (d.ns > 0) now_ = now_ + d;
    }
    void set(TimePoint t) { now_ = t; }

private:
    TimePoint now_{};
};

}  // namespace rbft::runtime
