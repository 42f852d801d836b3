// WallClockExecutor: drives a sim::Simulator against real time.
//
// This is the whole trick behind hosting unmodified protocol code over
// real sockets.  Each process owns a private Simulator whose TimePoint axis
// is "nanoseconds since process start"; protocol timers (monitoring
// periods, batch delays, retransmissions) are ordinary simulator events.
// The executor repeatedly:
//
//   1. advances the simulator to the current wall instant — run_until()
//      moves the sim clock forward even through empty stretches, so
//      sim-time and wall-time stay aligned and due timers fire;
//   2. asks next_event_time() when the next timer is due and uses that as
//      the ppoll(2) deadline, so the process sleeps in the kernel instead of
//      spinning — at nanosecond resolution, so a timer due in under a
//      millisecond is a short sleep, not a zero-timeout poll;
//   3. services the transport, which delivers received messages back into
//      the simulator at "now".
//
// Protocol code therefore cannot tell whether it is running in a
// deterministic test or against a wall clock — which is exactly the
// property that lets the kill-recovery smoke compare a real cluster's
// committed prefix byte-for-byte against a simulator run.
#pragma once

#include <sys/prctl.h>

#include "common/time.hpp"
#include "runtime/clock.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"

namespace rbft::runtime {

class WallClockExecutor {
public:
    /// Also sets the calling thread's timer slack to 1 ns: the thread that
    /// steps the executor needs its ppoll deadlines kept, where the default
    /// 50 us slack would let a 1 ms batch timer fire up to that late.
    WallClockExecutor(Clock& clock, sim::Simulator& simulator, TcpTransport& transport)
        : clock_(clock), simulator_(simulator), transport_(transport) {
        (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    }

    /// One iteration: advance timers, sleep in ppoll(2) until the next timer
    /// or inbound traffic (at most `max_poll`), then run whatever arrived.
    void step(Duration max_poll = milliseconds(50.0)) {
        (void)simulator_.run_until(clock_.now());
        Duration wait = max_poll;
        if (const auto next = simulator_.next_event_time(); next.has_value()) {
            const Duration until_next = *next - clock_.now();
            if (until_next < wait) wait = until_next;
        }
        if (wait.ns < 0) wait = Duration{};
        transport_.poll(wait);
        // Execute what the poll delivered without waiting for the next turn.
        (void)simulator_.run_until(clock_.now());
    }

    /// Runs step() until `d` of wall time has passed.
    void run_for(Duration d) {
        const TimePoint end = clock_.now() + d;
        while (!stop_requested_ && clock_.now() < end) step();
    }

    /// Runs step() until request_stop() (e.g. from a signal handler flag
    /// checked by the caller between steps).
    void run() {
        while (!stop_requested_) step();
    }

    void request_stop() noexcept { stop_requested_ = true; }
    [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }

private:
    Clock& clock_;
    sim::Simulator& simulator_;
    TcpTransport& transport_;
    bool stop_requested_ = false;
};

}  // namespace rbft::runtime
