// Rendering and parsing for hot-path profiles: top-N hotspot tables,
// collapsed-stack (flamegraph-compatible) text export, and a line-oriented
// reader for profile.json, used by tools/perf_report so it stays a thin
// main().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rbft::obs::prof {

class Profiler;

/// One zone row of a parsed (or directly captured) profile.  node/instance
/// use -1 for "unscoped", mirroring the JSON rendering.
struct ReportZone {
    std::string path;
    std::int64_t node = -1;
    std::int64_t instance = -1;
    std::uint64_t calls = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
};

struct ReportCounter {
    std::string name;
    std::int64_t node = -1;
    std::int64_t instance = -1;
    std::uint64_t value = 0;
};

struct Report {
    std::vector<ReportZone> zones;
    std::vector<ReportCounter> counters;

    /// Zones folded over node/instance scopes, keyed by path, sorted by
    /// descending self time (ties: path).  The hotspot/collapse views.
    [[nodiscard]] std::vector<ReportZone> zones_by_path() const;
};

/// Reads a profile.json (or the deterministic-only variant) from `in`.
/// Line-oriented like trace_inspect: each zone/counter object sits on its
/// own line.  Returns false when nothing parseable was found.
[[nodiscard]] bool parse_profile_json(std::istream& in, Report& out);

/// Captures a live profiler into a Report without a JSON round-trip.
[[nodiscard]] Report report_from(const Profiler& profiler);

/// Top-N hotspots by self time: path, calls, self/total milliseconds and
/// the self-time share of the total.
void render_hotspots(std::ostream& out, const Report& report, std::size_t top_n);

/// Deterministic counters, sorted by name.
void render_counters(std::ostream& out, const Report& report);

/// Collapsed-stack text: one "frame;frame;frame <self_ns>" line per zone
/// path, the input format of flamegraph.pl / speedscope / inferno.
void render_collapsed(std::ostream& out, const Report& report);

}  // namespace rbft::obs::prof
