// Chaos soak harness: runs an RBFT cluster under closed-loop load while a
// seeded FaultPlan crashes and recovers up to f nodes, partitions and heals
// the fabric, and degrades links/NICs — then checks the two invariants the
// fault model must preserve:
//
//   safety   — no two correct nodes commit different request batches at the
//              same master-instance sequence number (compared over the
//              persistent per-node commit logs; holes from checkpoint state
//              transfer are allowed),
//   liveness — once the last fault clears, closed-loop throughput in the
//              quiet tail recovers to within a bounded factor of an
//              identically-seeded fault-free twin run.
//
// One scenario = one deterministic run: same seed, same plan, same trace.
#pragma once

#include <cstdint>
#include <memory>

#include "common/time.hpp"
#include "exp/harness.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"

namespace rbft::exp {

struct ChaosSoakScenario {
    std::uint32_t f = 1;
    std::uint64_t seed = 42;
    /// Allocator knob (see core::ClusterConfig); the equivalence rig flips
    /// it and asserts byte-identical soak outcomes.
    bool pooled_messages = true;
    Duration duration = seconds(8.0);
    /// Final fault-free stretch the generated plan leaves for recovery
    /// measurement (see FaultPlan::SoakOptions::quiet_tail).
    Duration quiet_tail = seconds(3.0);
    /// Liveness is measured from last_clear_time + recovery_grace to the
    /// end of the run.
    Duration recovery_grace = seconds(1.0);
    std::uint32_t clients = 10;
    /// Closed-loop think time between a completion and the next request.
    Duration think_time = milliseconds(2.0);
    std::size_t payload_bytes = 8;
    /// Client retransmission: base timeout, exponential backoff with
    /// jitter (survives crashed/partitioned replicas without storms).
    Duration retransmit_timeout = milliseconds(20.0);
    /// Engine stall-retry period so ordering quorums interrupted mid-flight
    /// resume after a heal (0 would deadlock symmetric partitions).
    Duration engine_retry_interval = milliseconds(50.0);
    /// Small checkpoint interval so recovering replicas catch up quickly.
    std::uint64_t checkpoint_interval = 32;
    /// Liveness bound: tail throughput must recover to within this factor
    /// of the fault-free twin (tail * factor >= baseline).
    double liveness_factor = 2.0;
    /// false = fault-free twin (used internally for the liveness baseline,
    /// and by callers that want the baseline output).
    bool inject = true;
    /// Explicit plan; empty = FaultPlan::random_soak seeded from `seed`.
    fault::FaultPlan plan;
    /// Observability sink; null = the runner creates its own.
    std::shared_ptr<obs::Recorder> recorder;
};

struct ChaosSoakOutput {
    /// No divergent committed prefixes across nodes (always check this).
    bool safety_ok = false;
    /// Master-instance sequence numbers with 2+ nodes' fingerprints compared.
    std::uint64_t compared_seqs = 0;
    /// Closed-loop request completions over the whole run.
    std::uint64_t completed = 0;
    /// Completions/s in the post-recovery tail window.
    double tail_kreq_s = 0.0;
    /// Same window, identically-seeded fault-free twin (0 if inject=false).
    double baseline_tail_kreq_s = 0.0;
    /// Completions of the fault-free twin over its whole run.
    std::uint64_t baseline_completed = 0;
    /// True iff the twin made real progress (completions and nonzero tail
    /// throughput).  Guards the liveness comparison against a vacuous
    /// 0-vs-0 pass when the baseline itself stalls.
    bool baseline_progressed = false;
    /// Combined liveness verdict: the twin progressed AND the faulty run's
    /// tail recovered to within scenario.liveness_factor of it.
    bool liveness_ok = false;
    std::uint64_t faults_applied = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t instance_changes = 0;
    std::uint64_t view_changes = 0;
    std::uint64_t client_retransmissions = 0;
    TimePoint tail_from{};
    TimePoint tail_to{};
    fault::FaultPlan plan;
    std::shared_ptr<obs::Recorder> recorder;
};

/// Liveness verdict for a tail-vs-baseline comparison.  A baseline that
/// made no progress is never a pass: 0 vs 0 means "liveness unmeasurable",
/// not "liveness held".
[[nodiscard]] constexpr bool liveness_recovered(double tail_kreq_s,
                                                double baseline_tail_kreq_s,
                                                double factor) noexcept {
    if (baseline_tail_kreq_s <= 0.0) return false;
    return tail_kreq_s * factor >= baseline_tail_kreq_s;
}

/// Runs the soak (and, when scenario.inject, an identically-seeded
/// fault-free twin for the liveness baseline).
[[nodiscard]] ChaosSoakOutput run_chaos_soak(const ChaosSoakScenario& scenario);

}  // namespace rbft::exp
