#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <type_traits>

namespace rbft::exp {

std::uint64_t RunSpec::seed() const {
    return std::visit([](const auto& s) -> std::uint64_t { return s.seed; }, scenario);
}

double RunSpec::sim_seconds() const {
    return std::visit(
        [](const auto& s) -> double {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, ChaosSoakScenario>) {
                return s.duration.seconds();
            } else if constexpr (std::is_same_v<T, CustomRun>) {
                return s.sim_seconds;
            } else {
                return (s.warmup + s.measure).seconds();
            }
        },
        scenario);
}

namespace {

RunOutput execute(const RunSpec& spec) {
    const auto start = std::chrono::steady_clock::now();
    RunOutput out = std::visit(
        [](const auto& s) -> RunOutput {
            using T = std::decay_t<decltype(s)>;
            RunOutput r;
            if constexpr (std::is_same_v<T, RbftScenario>) {
                r.scenario = run_rbft(s);
            } else if constexpr (std::is_same_v<T, BaselineScenario>) {
                r.scenario = run_baseline(s);
            } else if constexpr (std::is_same_v<T, ChaosSoakScenario>) {
                r.chaos = run_chaos_soak(s);
            } else {
                r = s.run();
            }
            return r;
        },
        spec.scenario);
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return out;
}

}  // namespace

unsigned default_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1U : hw;
}

unsigned parse_jobs_flag(int& argc, char** argv, unsigned fallback) {
    unsigned jobs = fallback;
    int out = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        long parsed = -1;
        if (arg == "--jobs" && i + 1 < argc) {
            parsed = std::strtol(argv[++i], nullptr, 10);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            parsed = std::strtol(arg.c_str() + 7, nullptr, 10);
        } else {
            argv[out++] = argv[i];
            continue;
        }
        if (parsed > 0) jobs = static_cast<unsigned>(parsed);
    }
    argc = out;
    return jobs;
}

void parallel_for(std::size_t count, unsigned jobs, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    std::vector<std::exception_ptr> errors(count);
    const auto guarded = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(std::max(jobs, 1U), count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) guarded(i);
    } else {
        std::atomic<std::size_t> next{0};
        {
            std::vector<std::jthread> pool;
            pool.reserve(workers);
            for (unsigned w = 0; w < workers; ++w) {
                pool.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
                        guarded(i);
                    }
                });
            }
        }  // jthread dtors join: all jobs have finished past this brace
    }
    // First-failure propagation, deterministically: the lowest submission
    // index wins no matter which worker hit it first.
    for (auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

std::vector<RunOutput> run_specs(const std::vector<RunSpec>& specs, unsigned jobs) {
    std::vector<RunOutput> outputs(specs.size());
    parallel_for(specs.size(), jobs, [&](std::size_t i) { outputs[i] = execute(specs[i]); });
    return outputs;
}

}  // namespace rbft::exp
