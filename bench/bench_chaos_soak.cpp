// Chaos soak: an RBFT cluster under closed-loop load while a seeded fault
// plan crashes/recovers f nodes, partitions and heals the fabric, and
// degrades links and NICs.  Not a paper figure — a robustness harness: it
// reports the two invariants (safety = no divergent committed prefixes,
// liveness = post-recovery throughput vs an identically-seeded fault-free
// twin) across several seeds.  Each seed is one independent deterministic
// run, so the seeds execute concurrently on the worker pool.
//
// Set RBFT_OBS_DIR to export the faulty run's trace; `trace_inspect faults`
// renders the fault/recovery timeline from it.
#include "bench_util.hpp"
#include "exp/chaos.hpp"
#include "obs/recorder.hpp"

namespace rbft::bench {
namespace {

void register_points(Harness& harness) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        exp::ChaosSoakScenario scenario;
        scenario.seed = seed;
        scenario.recorder = std::make_shared<obs::Recorder>();
        // A full 8 s soak records ~400k events; size the ring to hold them
        // all so the fault timeline survives for `trace_inspect faults`.
        if (obs::export_dir_from_env()) scenario.recorder->enable_trace(1U << 20);

        char name[32];
        std::snprintf(name, sizeof(name), "ChaosSoak/seed:%llu",
                      static_cast<unsigned long long>(seed));
        harness.add_point(
            name, {exp::RunSpec{"chaos-soak", scenario}},
            [seed](const std::vector<exp::RunOutput>& outs) {
                const exp::ChaosSoakOutput& out = outs[0].chaos;
                // Folds run serially after the pool; the last seed's export
                // wins.
                exp::maybe_export(*out.recorder);
                const double recovery_pct =
                    out.baseline_tail_kreq_s > 0.0
                        ? 100.0 * out.tail_kreq_s / out.baseline_tail_kreq_s
                        : 0.0;
                PointOutcome outcome;
                outcome.counters = {
                    {"safety_ok", out.safety_ok ? 1.0 : 0.0},
                    {"recovery_pct", recovery_pct},
                    {"faults", static_cast<double>(out.faults_applied)},
                    {"instance_changes", static_cast<double>(out.instance_changes)}};
                outcome.rows = {
                    {"ChaosSoak seed=" + std::to_string(seed),
                     {{"safety_ok", out.safety_ok ? 1.0 : 0.0},
                      {"tail_kreq_s", out.tail_kreq_s},
                      {"baseline_kreq_s", out.baseline_tail_kreq_s},
                      {"recovery_pct", recovery_pct},
                      {"faults", static_cast<double>(out.faults_applied)},
                      {"crashes", static_cast<double>(out.crashes)},
                      {"retransmissions", static_cast<double>(out.client_retransmissions)},
                      {"instance_changes", static_cast<double>(out.instance_changes)}}}};
                return outcome;
            });
    }
}

}  // namespace
}  // namespace rbft::bench

RBFT_BENCH_MAIN("chaos_soak", "Chaos soak: safety + post-recovery throughput under seeded faults")
