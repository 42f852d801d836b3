// Online protocol-invariant oracles (simulation-based model checking).
//
// An OracleSuite subscribes to the obs::Recorder event stream (the same
// instrumentation every test and bench run already emits) and continuously
// checks the paper's safety claims while the run executes:
//
//   agreement            — no two replicas of the same protocol instance
//                          deliver different request batches at the same
//                          sequence number (PBFT safety, §IV-A)
//   prefix               — each replica's committed prefix is delivered in
//                          strictly increasing sequence order (no gaps
//                          skipped backwards, no re-delivery within one
//                          node lifetime)
//   checkpoint           — stable checkpoints advance monotonically and
//                          only ever become stable with a 2f+1 vote quorum
//   view-change safety   — a request committed in one view is never
//                          replaced by different content after a primary
//                          change (agreement conflict across views)
//   instance-change      — RBFT instance changes complete only at 2f+1
//                          INSTANCE_CHANGE support, and when a node moves
//                          to the next round *every* local instance starts
//                          (or is already running) a view change (§IV-D)
//   monitoring           — Δ-triggered (throughput-reason) votes only fire
//                          after the configured number of consecutive
//                          observed windows with ratio < Δ (§IV-C)
//
// The suite is deterministic: same event stream ⇒ same violations and the
// same per-oracle check counts, which the seed-determinism regression test
// relies on.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "rbft/node.hpp"

namespace rbft::check {

enum class OracleId : std::uint8_t {
    kAgreement = 0,
    kPrefix = 1,
    kCheckpoint = 2,
    kViewChangeSafety = 3,
    kInstanceChange = 4,
    kMonitoring = 5,
};

inline constexpr std::size_t kOracleCount = 6;

[[nodiscard]] constexpr const char* oracle_name(OracleId id) noexcept {
    switch (id) {
        case OracleId::kAgreement: return "agreement";
        case OracleId::kPrefix: return "prefix";
        case OracleId::kCheckpoint: return "checkpoint";
        case OracleId::kViewChangeSafety: return "view_change_safety";
        case OracleId::kInstanceChange: return "instance_change";
        case OracleId::kMonitoring: return "monitoring";
    }
    return "?";
}

/// Parses an oracle name back to its id; returns false for unknown names.
[[nodiscard]] bool oracle_from_name(const std::string& name, OracleId& out) noexcept;

struct Violation {
    TimePoint at{};
    OracleId oracle{};
    std::uint32_t node = obs::kNoNode;
    std::uint32_t instance = obs::kNoInstance;
    std::uint64_t seq = 0;
    std::string detail;
};

struct OracleConfig {
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    /// Protocol instances per node (0 = the RBFT default f+1).
    std::uint32_t instances = 0;
    /// Monitoring parameters the monitored cluster actually runs with; the
    /// monitoring oracle replays the Δ-window rule, with the node's streak
    /// length (MonitoringConfig::kConsecutiveBadWindows), against the
    /// emitted verdicts.
    core::MonitoringConfig monitoring{};
    /// Disable for runs without RBFT monitoring semantics (baselines).
    bool check_monitoring = true;

    [[nodiscard]] std::uint32_t instance_count() const noexcept {
        return instances > 0 ? instances : f + 1;
    }
};

class OracleSuite {
public:
    explicit OracleSuite(OracleConfig config) : config_(config) {}

    /// Installs this suite as the recorder's event listener.  The recorder
    /// must outlive the suite's observation window; call finalize() after
    /// the run completes to flush deferred checks.
    void attach(obs::Recorder& recorder);

    /// Feeds one event (events must arrive in nondecreasing time order, as
    /// the recorder emits them).
    void on_event(const obs::TraceEvent& e);

    /// Flushes deferred expectations (pending instance-change coordination
    /// windows).  Idempotent.
    void finalize();

    [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
        return violations_;
    }
    [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
    [[nodiscard]] std::uint64_t events_seen() const noexcept { return events_seen_; }
    /// Number of invariant evaluations each oracle performed (deterministic
    /// per event stream; the seed-determinism test compares these).
    [[nodiscard]] const std::array<std::uint64_t, kOracleCount>& checks() const noexcept {
        return checks_;
    }

    /// One line per violation ("t=.. oracle=.. node=.. ..."), for logs.
    [[nodiscard]] std::string summary() const;

private:
    void report(TimePoint at, OracleId oracle, std::uint32_t node, std::uint32_t instance,
                std::uint64_t seq, std::string detail);
    void count(OracleId oracle) noexcept { ++checks_[static_cast<std::size_t>(oracle)]; }

    void on_fingerprint(const obs::TraceEvent& e);
    void on_checkpoint_stable(const obs::TraceEvent& e);
    void on_view_change_start(const obs::TraceEvent& e);
    void on_view_installed(const obs::TraceEvent& e);
    void on_ic_vote(const obs::TraceEvent& e);
    void on_ic_done(const obs::TraceEvent& e);
    void on_monitor_verdict(const obs::TraceEvent& e);
    void on_node_crashed(const obs::TraceEvent& e);
    void on_node_restarted(const obs::TraceEvent& e);
    void flush_pending_before(TimePoint now);

    OracleConfig config_;
    std::vector<Violation> violations_;
    std::array<std::uint64_t, kOracleCount> checks_{};
    std::uint64_t events_seen_ = 0;
    bool finalized_ = false;

    // Agreement + view-change safety: canonical content per (instance, seq).
    struct SlotRecord {
        std::uint64_t fingerprint = 0;
        std::uint64_t view = 0;
        std::uint32_t first_node = obs::kNoNode;
    };
    std::map<std::pair<std::uint32_t, std::uint64_t>, SlotRecord> canonical_;

    // Prefix: last delivered seq per (node, instance); reset on restart.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last_delivered_;

    // Checkpoint: last stable seq per (node, instance); reset on restart.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last_stable_;

    // Instance change: votes seen so far per round (distinct voters).
    std::map<std::uint64_t, std::set<std::uint32_t>> ic_votes_;
    // Per node: instances with a view change started but not yet installed.
    std::map<std::uint32_t, std::set<std::uint32_t>> vc_in_flight_;
    // Per node: instances still expected to react to an instance change
    // completed at time `at` (flushed when sim time moves past `at`).
    struct PendingCoordination {
        TimePoint at{};
        std::uint64_t round = 0;
        std::set<std::uint32_t> instances;
    };
    std::map<std::uint32_t, PendingCoordination> ic_pending_;

    // Monitoring: recent verdicts (code, ratio) per node; reset on
    // restart / instance change.
    std::map<std::uint32_t, std::deque<std::pair<std::uint64_t, double>>> verdicts_;
};

}  // namespace rbft::check
