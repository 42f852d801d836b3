// Hot-path profiler: scoped zone timers plus deterministic cost counters,
// threaded through the same nullable-pointer pattern as obs::Recorder.
//
// Two kinds of data, deliberately segregated:
//  * deterministic counters and per-zone call counts — pure functions of the
//    run seed, byte-identical across identical-seed runs, and the part that
//    tests and bench artifacts compare;
//  * wall-clock self/total time per zone — host-dependent, exported in a
//    separate "wall" block that nothing byte-compares (the same split the
//    bench harness uses for wall_time_s).
//
// Zones are hierarchical: a Scope opened while another Scope is live extends
// its path ("sim.dispatch;net.deliver"), which makes the export trivially
// convertible to collapsed-stack / flamegraph format.  Keys carry the same
// {node, instance} scoping as obs::MetricKey.
//
// Zero overhead when disabled: every instrumentation site holds a nullable
// Profiler* and Scope is a no-op on null — one pointer test, no clock read,
// no allocation.  The profiler itself is single-run, single-threaded state,
// owned by the run's Recorder (exp::parallel gives each run its own).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace rbft::obs::prof {

/// The single audited wall-clock chokepoint (see prof.cpp).  Everything
/// wall-time in the repo must flow through here; the determinism rule of
/// tests/test_source_rules.cpp bans host clocks in the protocol layers.
[[nodiscard]] std::uint64_t wall_now_ns() noexcept;

/// Identity of one zone: full hierarchical path plus optional node/instance
/// scope, mirroring obs::MetricKey.
struct ZoneKey {
    std::string path;  // "sim.dispatch;net.deliver"
    std::uint32_t node = kNoNode;
    std::uint32_t instance = kNoInstance;

    auto operator<=>(const ZoneKey&) const = default;
};

/// Per-zone accumulators.  `calls` is deterministic; the _ns fields are
/// wall-clock and live only in the non-compared export block.
struct ZoneStats {
    std::uint64_t calls = 0;
    std::uint64_t wall_self_ns = 0;
    std::uint64_t wall_total_ns = 0;
};

/// Zone totals aggregated across node/instance scopes, used by the bench
/// artifact and hotspot report.
struct ZoneAgg {
    std::uint64_t calls = 0;
    std::uint64_t wall_self_ns = 0;
    std::uint64_t wall_total_ns = 0;
};

class Profiler {
public:
    // Transparent comparator so enter() can probe with a string_view path
    // without materialising a ZoneKey per call.
    struct PathRef {
        std::string_view path;
        std::uint32_t node;
        std::uint32_t instance;
    };
    struct ZoneLess {
        using is_transparent = void;
        static std::tuple<std::string_view, std::uint32_t, std::uint32_t> tie(const ZoneKey& k) noexcept {
            return {k.path, k.node, k.instance};
        }
        static std::tuple<std::string_view, std::uint32_t, std::uint32_t> tie(const PathRef& k) noexcept {
            return {k.path, k.node, k.instance};
        }
        template <typename A, typename B>
        bool operator()(const A& a, const B& b) const noexcept {
            return tie(a) < tie(b);
        }
    };
    using ZoneMap = std::map<ZoneKey, ZoneStats, ZoneLess>;

    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    // -- Deterministic counters ----------------------------------------------

    /// Stable counter handle, resolved once at wiring time exactly like
    /// MetricsRegistry::counter (std::map nodes never move).
    [[nodiscard]] Counter* counter(std::string name, std::uint32_t node = kNoNode,
                                   std::uint32_t instance = kNoInstance) {
        return &counters_[MetricKey{std::move(name), node, instance}];
    }

    [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                              std::uint32_t node = kNoNode,
                                              std::uint32_t instance = kNoInstance) const;

    /// Sum of a counter over every node/instance scope it was recorded in.
    [[nodiscard]] std::uint64_t counter_sum(std::string_view name) const;

    // -- Zone timers (driven by Scope below) ---------------------------------

    /// Opens a zone nested under the currently open one.  Prefer Scope;
    /// enter/exit must pair strictly (RAII guarantees this).
    void enter(std::string_view name, std::uint32_t node = kNoNode,
               std::uint32_t instance = kNoInstance);
    void exit();

    /// Pre-resolved handle for a *root-level* zone (no parent path).  The
    /// pointers are stable for the profiler's lifetime (map nodes never
    /// move), so per-dispatch hot loops resolve the zone once at wiring
    /// time and skip enter()'s path building and map probe entirely.
    struct ZoneHandle {
        ZoneStats* stats = nullptr;
        const std::string* path = nullptr;
    };
    [[nodiscard]] ZoneHandle root_zone(std::string_view name, std::uint32_t node = kNoNode,
                                       std::uint32_t instance = kNoInstance);

    /// Fast-path enter via a root_zone() handle.  Valid only while no other
    /// zone is open (open_depth() == 0) — the handle's path has no parent
    /// prefix.  Pair with exit() as usual.
    void enter_root(const ZoneHandle& handle) {
        handle.stats->calls += 1;
        stack_.push_back(Open{handle.stats, handle.path, wall_now_ns(), 0});
    }

    /// Depth of the currently open zone stack (0 outside any Scope).
    [[nodiscard]] std::size_t open_depth() const noexcept { return stack_.size(); }

    // -- Read side -----------------------------------------------------------

    [[nodiscard]] const std::map<MetricKey, Counter>& counters() const noexcept {
        return counters_;
    }
    [[nodiscard]] const ZoneMap& zones() const noexcept { return zones_; }

    /// Zones folded over node/instance, keyed by path (deterministic order).
    [[nodiscard]] std::map<std::string, ZoneAgg> zones_by_path() const;

    // -- Export --------------------------------------------------------------

    /// Full profile: schema rbft-prof-v1, a "deterministic" block (counters
    /// plus per-zone call counts) followed by a "wall" block (per-zone
    /// self/total nanoseconds).  Line-oriented like the trace export.
    void write_profile_json(std::ostream& os) const;

    /// Only the deterministic block — the byte-comparable section.  Identical
    /// seeds must produce identical output from this function.
    void write_deterministic_json(std::ostream& os) const;

private:
    struct Open {
        ZoneStats* stats;
        const std::string* path;  // owned by the zones_ map key, stable
        std::uint64_t start_ns;
        std::uint64_t child_ns;
    };

    std::map<MetricKey, Counter> counters_;
    ZoneMap zones_;
    std::vector<Open> stack_;
    std::string path_buf_;  // scratch for building child paths
};

/// RAII zone guard.  Null profiler means a fully disabled site: the
/// constructor and destructor reduce to one pointer test each.
class Scope {
public:
    Scope(Profiler* profiler, std::string_view name, std::uint32_t node = kNoNode,
          std::uint32_t instance = kNoInstance)
        : profiler_(profiler) {
        if (profiler_) profiler_->enter(name, node, instance);
    }
    ~Scope() {
        if (profiler_) profiler_->exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Profiler* profiler_;
};

}  // namespace rbft::obs::prof

// Convenience zone macro: RBFT_PROF_ZONE(profiler_, "net.deliver") or with
// explicit node/instance scope appended.  Unique local name per line.
#define RBFT_PROF_ZONE_CAT2(a, b) a##b
#define RBFT_PROF_ZONE_CAT(a, b) RBFT_PROF_ZONE_CAT2(a, b)
#define RBFT_PROF_ZONE(profiler, ...) \
    ::rbft::obs::prof::Scope RBFT_PROF_ZONE_CAT(rbft_prof_zone_, __LINE__)(profiler, __VA_ARGS__)
