// Parallel experiment engine: runs independent deterministic simulations
// concurrently on a fixed-size worker pool.
//
// A sweep is a declarative vector of RunSpec jobs; run_specs() executes them
// on up to `jobs` std::jthread workers and returns results ordered by
// submission index regardless of completion order, so a parallel sweep is
// byte-identical to the serial one.  This is safe because every run is
// instance-confined: each simulation owns its Simulator, Recorder and
// Logger, and nothing in the runtime touches cross-run shared state (the
// TSan job runs RunSpecs.ParallelSweepIsByteIdenticalToSerial and
// Explore.OutcomeIsIndependentOfJobCount to keep it that way).
//
// Failure semantics are deterministic too: every job runs to completion (or
// failure), then the exception of the *lowest submission index* is
// rethrown — identical behavior at --jobs 1 and --jobs N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/runners.hpp"

namespace rbft::exp {

/// What one job produced.  Exactly one of `scenario` / `chaos` is filled
/// for the declarative scenario kinds; CustomRun jobs build it themselves.
struct RunOutput {
    ScenarioOutput scenario;
    ChaosSoakOutput chaos;
    /// Bench-specific named values (peak latency, stage means, ...);
    /// exported verbatim into the BENCH_*.json counters.
    std::vector<std::pair<std::string, double>> extra;
    /// Free-form lines a bench prints after its summary table (e.g. the
    /// downsampled latency series of Fig. 12).
    std::vector<std::string> notes;
    /// Wall-clock of this job alone (the only nondeterministic field).
    double wall_seconds = 0.0;
};

/// Escape hatch for bespoke drivers (Fig. 12's custom attack loop, the
/// closed-loop ablation): a callable that performs one deterministic run.
/// `seed` and `sim_seconds` replicate the metadata the declarative kinds
/// carry so artifacts stay uniform.
struct CustomRun {
    std::uint64_t seed = 0;
    double sim_seconds = 0.0;
    std::function<RunOutput()> run;
};

/// One experimental run, declaratively: which scenario to execute and what
/// to call it.  Building specs is cheap and serial; executing them is where
/// the pool parallelism happens.
struct RunSpec {
    std::string label;
    std::variant<RbftScenario, BaselineScenario, ChaosSoakScenario, CustomRun> scenario;

    [[nodiscard]] std::uint64_t seed() const;
    /// Nominal simulated duration (warmup+measure, soak duration, or the
    /// CustomRun's declared value) — artifact metadata, not a limit.
    [[nodiscard]] double sim_seconds() const;
};

/// Default worker count: hardware_concurrency, at least 1.
[[nodiscard]] unsigned default_jobs();

/// Strips a `--jobs N` / `--jobs=N` flag from argv (so downstream parsers
/// like google-benchmark never see it) and returns the value, or `fallback`
/// when absent.  0 or unparsable values fall back too.
[[nodiscard]] unsigned parse_jobs_flag(int& argc, char** argv, unsigned fallback);

/// Runs fn(0..count-1) on up to `jobs` workers.  All indices execute even
/// if some throw; afterwards the lowest-index exception (if any) is
/// rethrown.  jobs <= 1 runs inline on the calling thread.  Callers that
/// write into index-addressed output slots therefore observe results
/// independent of scheduling.
void parallel_for(std::size_t count, unsigned jobs, const std::function<void(std::size_t)>& fn);

/// Executes every spec on the pool; result i corresponds to specs[i].
[[nodiscard]] std::vector<RunOutput> run_specs(const std::vector<RunSpec>& specs, unsigned jobs);

}  // namespace rbft::exp
