// check_explore: seeded schedule exploration with the invariant oracles
// attached (see src/check/).  Runs N seeds of the scenario, each with a
// deterministically sampled perturbation set (link delay / reorder / loss,
// crash-recover) applied through the fault injector; any oracle violation
// is shrunk to a minimal failing schedule and written as a replayable JSON
// artifact (`trace_inspect replay <artifact>` re-runs it).
//
//   check_explore [--seeds N] [--first-seed S] [--jobs J] [--f F]
//                 [--duration-ms MS] [--clients C] [--max-perturbations P]
//                 [--artifact PATH] [--equivocate-mask M] [--prepare-quorum Q]
//                 [--commit-quorum Q] [--backend master-only|merged]
//
// Seeds run on up to J worker threads (default: hardware concurrency); the
// outcome is byte-identical at any job count.
//
// Exit codes: 0 = all seeds clean, 1 = violation found (artifact written),
// 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "exp/parallel.hpp"

int main(int argc, char** argv) {
    rbft::check::ExploreScenario scenario;
    std::uint64_t first_seed = 1;
    std::uint32_t num_seeds = 10;
    unsigned jobs = rbft::exp::default_jobs();
    const char* artifact_path = "violation.json";

    for (int i = 1; i < argc; ++i) {
        auto next_u64 = [&](std::uint64_t& out) {
            if (i + 1 >= argc) return false;
            out = std::strtoull(argv[++i], nullptr, 10);
            return true;
        };
        std::uint64_t v = 0;
        if (std::strcmp(argv[i], "--seeds") == 0 && next_u64(v)) {
            num_seeds = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--first-seed") == 0 && next_u64(v)) {
            first_seed = v;
        } else if (std::strcmp(argv[i], "--jobs") == 0 && next_u64(v)) {
            jobs = v > 0 ? static_cast<unsigned>(v) : jobs;
        } else if (std::strcmp(argv[i], "--f") == 0 && next_u64(v)) {
            scenario.f = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--duration-ms") == 0 && next_u64(v)) {
            scenario.duration = rbft::milliseconds(static_cast<double>(v));
        } else if (std::strcmp(argv[i], "--clients") == 0 && next_u64(v)) {
            scenario.clients = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--max-perturbations") == 0 && next_u64(v)) {
            scenario.max_perturbations = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--artifact") == 0 && i + 1 < argc) {
            artifact_path = argv[++i];
        } else if (std::strcmp(argv[i], "--equivocate-mask") == 0 && next_u64(v)) {
            scenario.test_faults.equivocate_mask = v;
        } else if (std::strcmp(argv[i], "--prepare-quorum") == 0 && next_u64(v)) {
            scenario.test_faults.prepare_quorum_override = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--commit-quorum") == 0 && next_u64(v)) {
            scenario.test_faults.commit_quorum_override = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
            const auto backend = rbft::bft::parse_backend(argv[++i]);
            if (!backend) {
                std::fprintf(stderr, "check_explore: unknown backend '%s'\n", argv[i]);
                return 2;
            }
            scenario.backend = *backend;
        } else {
            std::fprintf(stderr,
                         "usage: check_explore [--seeds N] [--first-seed S] [--jobs J] "
                         "[--f F] [--duration-ms MS] [--clients C] [--max-perturbations P] "
                         "[--artifact PATH] [--equivocate-mask M] [--prepare-quorum Q] "
                         "[--commit-quorum Q] [--backend master-only|merged]\n");
            return 2;
        }
    }

    std::printf("exploring %u seed(s) from %llu: f=%u, n=%u, %.0f ms per schedule, "
                "<=%u perturbations, %u job(s)\n",
                num_seeds, static_cast<unsigned long long>(first_seed), scenario.f,
                3 * scenario.f + 1, scenario.duration.seconds() * 1e3,
                scenario.max_perturbations, jobs);
    if (scenario.backend != rbft::bft::ExecutionBackend::kMasterOnly) {
        // Printed only off the default path so default output stays
        // byte-comparable across revisions.
        std::printf("backend: %s\n", rbft::bft::backend_name(scenario.backend));
    }
    if (scenario.test_faults.any()) {
        std::printf("planted faults: equivocate_mask=%llx prepare_quorum=%u commit_quorum=%u\n",
                    static_cast<unsigned long long>(scenario.test_faults.equivocate_mask),
                    scenario.test_faults.prepare_quorum_override,
                    scenario.test_faults.commit_quorum_override);
    }

    const rbft::check::ExploreOutcome outcome =
        rbft::check::explore(scenario, first_seed, num_seeds, jobs);

    std::printf("ran %llu seed(s): %llu events, %llu requests completed, %llu state transfers\n",
                static_cast<unsigned long long>(outcome.seeds_run),
                static_cast<unsigned long long>(outcome.events),
                static_cast<unsigned long long>(outcome.completed),
                static_cast<unsigned long long>(outcome.state_transfers));
    for (std::size_t i = 0; i < rbft::check::kOracleCount; ++i) {
        std::printf("  %-20s %llu checks\n",
                    rbft::check::oracle_name(static_cast<rbft::check::OracleId>(i)),
                    static_cast<unsigned long long>(outcome.checks[i]));
    }

    if (!outcome.artifact) {
        std::printf("no invariant violations\n");
        return 0;
    }

    const rbft::check::ViolationArtifact& artifact = *outcome.artifact;
    std::printf("VIOLATION: oracle=%s seed=%llu (%llu seed(s) violating)\n",
                rbft::check::oracle_name(artifact.oracle),
                static_cast<unsigned long long>(artifact.seed),
                static_cast<unsigned long long>(outcome.seeds_violating));
    std::printf("detail: %s\n", artifact.detail.c_str());
    std::printf("shrunk to %zu perturbation(s) in %llu candidate run(s)\n",
                artifact.schedule.size(),
                static_cast<unsigned long long>(outcome.shrink_runs));
    for (const rbft::check::Perturbation& p : artifact.schedule) {
        std::printf("  %-12s a=%u b=%u at=%.6fs until=%.6fs p=%.3f delay=%.3fms\n",
                    rbft::check::perturbation_kind_name(p.kind), p.a, p.b,
                    static_cast<double>(p.at_ns) * 1e-9,
                    static_cast<double>(p.until_ns) * 1e-9, p.p,
                    static_cast<double>(p.delay_ns) * 1e-6);
    }

    std::ofstream out(artifact_path);
    if (!out) {
        std::fprintf(stderr, "check_explore: cannot write %s\n", artifact_path);
        return 1;
    }
    out << rbft::check::to_json(artifact);
    std::printf("artifact written to %s (replay: trace_inspect replay %s)\n", artifact_path,
                artifact_path);
    return 1;
}
