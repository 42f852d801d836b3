// The Recorder bundles the metrics registry and the flight-recorder trace
// ring, and owns JSON export (metrics.json / trace.json).
//
// Usage: construct one Recorder per simulation run, hand a pointer to the
// components being observed (cluster config, network, simulator, clients),
// run, then export.  Protocol nodes always have one: a cluster without a
// supplied recorder records into its own, so the registry is where every
// protocol counter lives.  The simulator, network, clients and fault
// injector accept a null recorder and then skip their instrumentation.
// Tracing is off by default; enable_trace() (or a listener) turns event
// construction on, and profiling stays behind its own nullable pointer.
//
// Export is deterministic: registry maps iterate in key order, trace events
// are written oldest-first with integer nanosecond timestamps, and doubles
// are formatted with a fixed "%.9g" — two same-seed runs produce
// bit-identical files.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace rbft::obs {

class Recorder {
public:
    [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
    [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

    /// Turns the flight recorder on (idempotent; `capacity` applies to the
    /// first call only).
    void enable_trace(std::size_t capacity = TraceRing::kDefaultCapacity) {
        if (!tracing_) trace_ = TraceRing(capacity);
        tracing_ = true;
    }
    [[nodiscard]] bool tracing() const noexcept { return tracing_; }
    [[nodiscard]] TraceRing& trace() noexcept { return trace_; }
    [[nodiscard]] const TraceRing& trace() const noexcept { return trace_; }

    /// Turns the hot-path profiler on (idempotent).  Must be called before
    /// components are wired to this recorder: instrumentation sites cache
    /// the profiler pointer once, exactly like metric handles.
    void enable_profiling() {
        if (!profiler_) profiler_ = std::make_unique<prof::Profiler>();
    }

    /// The run's profiler, or null when profiling is disabled.  Components
    /// hold this pointer and skip all zone/counter work when it is null.
    [[nodiscard]] prof::Profiler* profiler() noexcept { return profiler_.get(); }
    [[nodiscard]] const prof::Profiler* profiler() const noexcept { return profiler_.get(); }
    [[nodiscard]] bool profiling() const noexcept { return profiler_ != nullptr; }

    /// Installs (or clears, with an empty function) a synchronous listener
    /// that sees every event in emission order, independent of the trace
    /// ring and its wraparound.  Online invariant oracles (src/check) hook
    /// in here.
    void set_listener(std::function<void(const TraceEvent&)> listener) {
        listener_ = std::move(listener);
    }

    /// True when anything consumes events — either the flight recorder is
    /// on or a listener is installed.  Instrumentation sites should guard
    /// event construction with `if (rec && rec->observing())`.
    [[nodiscard]] bool observing() const noexcept {
        return tracing_ || static_cast<bool>(listener_);
    }

    /// Dispatches a trace event to the listener (if any) and records it in
    /// the flight recorder iff tracing is enabled.  The hot-path guard
    /// callers should use is `if (rec && rec->observing())`, but calling
    /// unconditionally is safe.
    void event(const TraceEvent& e) {
        if (listener_) listener_(e);
        if (tracing_) trace_.record(e);
    }

    // -- JSON export ---------------------------------------------------------

    void write_metrics_json(std::ostream& out) const;
    void write_trace_json(std::ostream& out) const;

    /// Writes `<dir>/metrics.json`, `<dir>/trace.json` (when tracing) and
    /// `<dir>/profile.json` (when profiling).  Returns false if a file could
    /// not be opened or written.
    [[nodiscard]] bool export_to_dir(const std::string& dir) const;

private:
    MetricsRegistry metrics_;
    TraceRing trace_{0};  // re-made with real capacity by enable_trace()
    bool tracing_ = false;
    std::unique_ptr<prof::Profiler> profiler_;  // null = profiling disabled
    std::function<void(const TraceEvent&)> listener_;
};

/// Directory requested via the RBFT_OBS_DIR environment variable, or
/// nullptr when observability export is not requested.
[[nodiscard]] const char* export_dir_from_env();

}  // namespace rbft::obs
