// Seeded schedule exploration on top of the deterministic DES.
//
// A schedule is the base simulation (everything already derived from the
// cluster seed: per-link jitter, client think jitter, batching timing) plus
// an explicit set of perturbations: bounded message-delivery reordering and
// extra per-link delay, link loss, and crash/recover timing — all expressed
// as fault::FaultPlan events so the existing injector machinery applies
// them.  explore() runs N seeds of a scenario with the invariant oracles
// (check/oracles.hpp) attached; on a violation it runs a ddmin-style
// shrinking pass that bisects the perturbation set down to a minimal subset
// that still trips the same oracle, and packages the result as a replayable
// artifact (serialized by check/artifact.hpp, replayed by
// `tools/trace_inspect replay`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bft/engine.hpp"
#include "check/oracles.hpp"
#include "common/time.hpp"

namespace rbft::check {

/// One schedule perturbation, flat and serializable.
struct Perturbation {
    enum class Kind : std::uint8_t {
        kLinkDelay = 0,    // extra per-link delay (delay_ns) on link a<->b
        kLinkReorder = 1,  // reorder_prob p within window delay_ns on a<->b
        kLinkLoss = 2,     // loss_prob p on a<->b
        kCrash = 3,        // crash node a at at_ns, recover at until_ns
    };

    Kind kind = Kind::kLinkDelay;
    std::uint32_t a = 0;  // node (crash) or link endpoint
    std::uint32_t b = 0;  // other link endpoint (unused for crash)
    std::int64_t at_ns = 0;
    std::int64_t until_ns = 0;
    double p = 0.0;            // loss / reorder probability
    std::int64_t delay_ns = 0;  // extra delay or reorder window
};

[[nodiscard]] constexpr const char* perturbation_kind_name(Perturbation::Kind k) noexcept {
    switch (k) {
        case Perturbation::Kind::kLinkDelay: return "link_delay";
        case Perturbation::Kind::kLinkReorder: return "link_reorder";
        case Perturbation::Kind::kLinkLoss: return "link_loss";
        case Perturbation::Kind::kCrash: return "crash";
    }
    return "?";
}

struct ExploreScenario {
    std::uint32_t f = 1;
    /// Allocator knob (see core::ClusterConfig); the equivalence rig flips
    /// it and asserts identical schedule results.
    bool pooled_messages = true;
    Duration duration = seconds(2.0);
    std::uint32_t clients = 4;
    Duration think_time = milliseconds(1.0);
    std::size_t payload_bytes = 8;
    std::uint64_t checkpoint_interval = 16;
    Duration engine_retry_interval = milliseconds(20.0);
    Duration retransmit_timeout = milliseconds(20.0);
    /// Upper bound on sampled perturbations per schedule.
    std::uint32_t max_perturbations = 6;
    /// Planted engine bugs (oracle acceptance tests); correct by default.
    bft::EngineTestFaults test_faults{};
    bool check_monitoring = true;
};

/// Outcome of one schedule execution with oracles attached.
struct ScheduleResult {
    std::vector<Violation> violations;
    std::array<std::uint64_t, kOracleCount> checks{};
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    /// Sum of bft.state_transfers over every node and instance.
    std::uint64_t state_transfers = 0;
};

/// Deterministically samples a perturbation set for (scenario, seed):
/// same inputs ⇒ same schedule.  Crash windows never overlap (at most one
/// node down at a time, within the f=1 fault budget) and every
/// perturbation clears before ~90% of the run.
[[nodiscard]] std::vector<Perturbation> sample_perturbations(const ExploreScenario& scenario,
                                                             std::uint64_t seed);

/// Runs one schedule: RBFT cluster seeded with `seed`, oracles attached,
/// `perturbations` applied through the fault injector, closed-loop clients.
[[nodiscard]] ScheduleResult run_schedule(const ExploreScenario& scenario, std::uint64_t seed,
                                          const std::vector<Perturbation>& perturbations);

/// ddmin-style shrink: returns a minimal subset of `perturbations` whose
/// schedule still trips `target` (possibly empty when the violation does
/// not depend on the perturbations at all).  `runs`, if non-null,
/// accumulates the number of candidate executions.
[[nodiscard]] std::vector<Perturbation> shrink_schedule(
    const ExploreScenario& scenario, std::uint64_t seed,
    std::vector<Perturbation> perturbations, OracleId target, std::uint64_t* runs = nullptr);

/// A minimal failing schedule, replayable byte-for-byte.
struct ViolationArtifact {
    ExploreScenario scenario{};
    std::uint64_t seed = 0;
    OracleId oracle = OracleId::kAgreement;
    std::string detail;
    std::vector<Perturbation> schedule;
};

struct ExploreOutcome {
    std::uint64_t seeds_run = 0;
    std::uint64_t seeds_violating = 0;
    /// Oracle evaluations across all seed runs (excluding shrink reruns).
    std::array<std::uint64_t, kOracleCount> checks{};
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t state_transfers = 0;
    /// Shrunk artifact for the first violation found (if any).
    std::optional<ViolationArtifact> artifact;
    std::uint64_t shrink_runs = 0;
};

/// Runs `num_seeds` schedules starting at `first_seed`; shrinks and
/// packages the first violation encountered.  Seeds are independent
/// deterministic runs, so they execute on up to `jobs` worker threads
/// (exp::parallel_for); the outcome — including which violation is shrunk —
/// is identical at any job count.
[[nodiscard]] ExploreOutcome explore(const ExploreScenario& scenario, std::uint64_t first_seed,
                                     std::uint32_t num_seeds, unsigned jobs = 1);

}  // namespace rbft::check
