// Shared scaffolding for the paper-reproduction benches.
//
// A bench is a list of *points*; each point owns the RunSpecs (deterministic
// simulations) it needs and a fold that turns their outputs into summary
// rows and google-benchmark counters.  The harness executes every spec of
// every point on the exp::parallel worker pool (`--jobs N`, default
// hardware concurrency — a point is one deterministic simulation, not a
// timing sample, so parallel execution changes wall-clock only), then
// registers one google-benchmark entry per point (Iterations(1)) to report
// the counters, prints the paper-style table, and writes a machine-readable
// BENCH_<name>.json artifact ($RBFT_BENCH_DIR or the working directory).
// `--backend merged` re-runs every RBFT scenario of the bench
// under that execution backend (suffixing the artifact name), so each paper
// figure can be re-swept per backend without a dedicated binary.
//
// All collected state lives in the Harness instance — there is no
// header-global storage, so nothing here is shared across concurrent runs.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bft/execution.hpp"
#include "exp/parallel.hpp"
#include "exp/runners.hpp"

namespace rbft::bench {

/// One collected row for the summary printed after the benchmarks run.
struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
};

/// What a point's fold produced from its runs.
struct PointOutcome {
    std::vector<Row> rows;
    /// Reported as google-benchmark counters and in the JSON artifact.
    std::vector<std::pair<std::string, double>> counters;
    /// Free-form lines printed after the summary (e.g. Fig. 12's series).
    std::vector<std::string> notes;
};

/// One experimental point: a benchmark name, the runs it needs, and the
/// fold combining their outputs (outputs[i] corresponds to specs[i]).
struct Point {
    std::string name;
    std::vector<exp::RunSpec> specs;
    std::function<PointOutcome(const std::vector<exp::RunOutput>&)> fold;
};

class Harness {
public:
    Harness(std::string bench_name, std::string title)
        : bench_name_(std::move(bench_name)), title_(std::move(title)) {}

    void add_point(std::string name, std::vector<exp::RunSpec> specs,
                   std::function<PointOutcome(const std::vector<exp::RunOutput>&)> fold) {
        points_.push_back(Point{std::move(name), std::move(specs), std::move(fold)});
    }

    /// Executes all points and reports.  Returns the process exit code.
    int run(int argc, char** argv) {
        // `--backend merged|master-only` re-sweeps every RBFT scenario of
        // this bench under that execution backend (bft::parse_backend
        // names; baseline-protocol specs are untouched).
        // The artifact name gains a `_<backend>` suffix so sweeps never
        // clobber the master-only baseline JSON.
        bool backend_ok = true;
        const std::optional<bft::ExecutionBackend> backend =
            parse_backend_flag(argc, argv, backend_ok);
        if (!backend_ok) return 2;
        if (backend && *backend != bft::ExecutionBackend::kMasterOnly) {
            bench_name_ += std::string("_") + bft::backend_name(*backend);
            std::printf("# --backend %s: re-sweeping RBFT scenarios\n",
                        bft::backend_name(*backend));
            for (Point& point : points_) {
                for (exp::RunSpec& spec : point.specs) {
                    if (auto* rbft = std::get_if<exp::RbftScenario>(&spec.scenario)) {
                        rbft->backend = *backend;
                    }
                }
            }
        }

        const unsigned jobs = exp::parse_jobs_flag(argc, argv, exp::default_jobs());
        bool max_points_ok = true;
        const std::size_t max_points = parse_max_points(argc, argv, max_points_ok);
        if (!max_points_ok) return 2;
        if (max_points < points_.size()) {
            std::printf("# --max-points %zu: dropping %zu of %zu points\n", max_points,
                        points_.size() - max_points, points_.size());
            points_.resize(max_points);
        }

        // Phase 1 — all simulations, flattened across points, on the pool.
        // Results land by submission index, so folds see the same inputs at
        // any job count.
        std::vector<exp::RunSpec> all;
        std::vector<std::size_t> first_spec(points_.size(), 0);
        for (std::size_t p = 0; p < points_.size(); ++p) {
            first_spec[p] = all.size();
            for (const exp::RunSpec& spec : points_[p].specs) all.push_back(spec);
        }
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<exp::RunOutput> outputs = exp::run_specs(all, jobs);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

        // Phase 2 — serial folds, in point order.
        outcomes_.resize(points_.size());
        for (std::size_t p = 0; p < points_.size(); ++p) {
            const std::vector<exp::RunOutput> slice(
                outputs.begin() + static_cast<std::ptrdiff_t>(first_spec[p]),
                outputs.begin() +
                    static_cast<std::ptrdiff_t>(first_spec[p] + points_[p].specs.size()));
            outcomes_[p] = points_[p].fold(slice);
        }

        // Phase 3 — report through google-benchmark (counters per point).
        for (std::size_t p = 0; p < points_.size(); ++p) {
            const PointOutcome* outcome = &outcomes_[p];
            benchmark::RegisterBenchmark(points_[p].name.c_str(),
                                         [outcome](benchmark::State& state) {
                                             for (auto _ : state) {
                                             }
                                             for (const auto& [name, value] : outcome->counters) {
                                                 state.counters[name] = value;
                                             }
                                         })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();

        print_summary();
        std::printf("# %zu run(s) across %zu point(s) on %u job(s): %.2f s wall\n", all.size(),
                    points_.size(), jobs, wall);
        const bool artifact_ok = write_artifact(jobs, outputs, first_spec);
        return artifact_ok && !exp::export_failed() ? 0 : 1;
    }

private:
    static std::optional<bft::ExecutionBackend> parse_backend_flag(int& argc, char** argv,
                                                                   bool& ok) {
        std::optional<bft::ExecutionBackend> backend;
        int out = 0;
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string value;
            if (arg == "--backend" && i + 1 < argc) {
                value = argv[++i];
            } else if (arg.rfind("--backend=", 0) == 0) {
                value = arg.substr(10);
            } else {
                argv[out++] = argv[i];
                continue;
            }
            backend = bft::parse_backend(value);
            if (!backend) {
                std::fprintf(stderr,
                             "bench: unknown --backend %s "
                             "(want master-only or merged)\n",
                             value.c_str());
                ok = false;
            }
        }
        argc = out;
        return backend;
    }

    static std::size_t parse_max_points(int& argc, char** argv, bool& ok) {
        std::size_t max_points = static_cast<std::size_t>(-1);
        int out = 0;
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string value;
            if (arg == "--max-points" && i + 1 < argc) {
                value = argv[++i];
            } else if (arg.rfind("--max-points=", 0) == 0) {
                value = arg.substr(13);
            } else {
                argv[out++] = argv[i];
                continue;
            }
            // A whole non-negative decimal integer, nothing else: strtoull
            // alone would read "abc" as 0 and "-1" as a huge count.
            const bool digits =
                !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
            errno = 0;
            const unsigned long long parsed =
                digits ? std::strtoull(value.c_str(), nullptr, 10) : 0;
            if (!digits || errno == ERANGE) {
                std::fprintf(stderr,
                             "bench: bad --max-points %s (want a non-negative integer)\n",
                             value.c_str());
                ok = false;
                continue;
            }
            max_points = static_cast<std::size_t>(parsed);
        }
        argc = out;
        return max_points;
    }

    void print_summary() const {
        std::printf("\n==== %s ====\n", title_.c_str());
        for (const PointOutcome& outcome : outcomes_) {
            for (const Row& row : outcome.rows) {
                std::printf("%-42s", row.label.c_str());
                for (const auto& [name, value] : row.values) {
                    std::printf("  %s=%.2f", name.c_str(), value);
                }
                std::printf("\n");
            }
        }
        std::printf("\n");
        for (const PointOutcome& outcome : outcomes_) {
            for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
        }
    }

    static void append_escaped(std::string& out, const std::string& s) {
        out += '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        out += '"';
    }

    static void append_number(std::string& out, double v) {
        if (!std::isfinite(v)) {
            out += "0";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out += buf;
    }

    /// BENCH_<name>.json, schema rbft-bench-v1.  Every field is deterministic
    /// for a given build except wall_time_s.  Returns false when the file
    /// cannot be written.
    [[nodiscard]] bool write_artifact(unsigned jobs, const std::vector<exp::RunOutput>& outputs,
                                      const std::vector<std::size_t>& first_spec) const {
        std::string json = "{\"schema\":\"rbft-bench-v1\",\"bench\":";
        append_escaped(json, bench_name_);
        json += ",\"title\":";
        append_escaped(json, title_);
        json += ",\"jobs\":" + std::to_string(jobs) + ",\"points\":[";
        for (std::size_t p = 0; p < points_.size(); ++p) {
            if (p) json += ',';
            json += "{\"name\":";
            append_escaped(json, points_[p].name);
            json += ",\"counters\":{";
            for (std::size_t c = 0; c < outcomes_[p].counters.size(); ++c) {
                if (c) json += ',';
                append_escaped(json, outcomes_[p].counters[c].first);
                json += ':';
                append_number(json, outcomes_[p].counters[c].second);
            }
            json += "},\"runs\":[";
            for (std::size_t s = 0; s < points_[p].specs.size(); ++s) {
                if (s) json += ',';
                const exp::RunSpec& spec = points_[p].specs[s];
                json += "{\"label\":";
                append_escaped(json, spec.label);
                json += ",\"seed\":" + std::to_string(spec.seed());
                json += ",\"sim_time_s\":";
                append_number(json, spec.sim_seconds());
                json += ",\"wall_time_s\":";
                append_number(json, outputs[first_spec[p] + s].wall_seconds);
                json += '}';
            }
            json += "],\"rows\":[";
            for (std::size_t r = 0; r < outcomes_[p].rows.size(); ++r) {
                if (r) json += ',';
                const Row& row = outcomes_[p].rows[r];
                json += "{\"label\":";
                append_escaped(json, row.label);
                json += ",\"values\":{";
                for (std::size_t v = 0; v < row.values.size(); ++v) {
                    if (v) json += ',';
                    append_escaped(json, row.values[v].first);
                    json += ':';
                    append_number(json, row.values[v].second);
                }
                json += "}}";
            }
            json += "]}";
        }
        json += "]}\n";

        const char* dir = std::getenv("RBFT_BENCH_DIR");
        const std::string path =
            (dir ? std::string(dir) + "/" : std::string()) + "BENCH_" + bench_name_ + ".json";
        std::ofstream out(path);
        out << json;
        out.close();
        if (!out) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return false;
        }
        std::printf("# artifact: %s\n", path.c_str());
        return true;
    }

    std::string bench_name_;
    std::string title_;
    std::vector<Point> points_;
    std::vector<PointOutcome> outcomes_;
};

inline const char* load_name(exp::LoadShape load) {
    return load == exp::LoadShape::kStatic ? "static" : "dynamic";
}

}  // namespace rbft::bench

/// Standard main: each bench defines register_points(Harness&); the harness
/// runs every spec on the worker pool, reports through google-benchmark,
/// prints the paper-style summary, and writes BENCH_<name>.json.
#define RBFT_BENCH_MAIN(name, title)                              \
    int main(int argc, char** argv) {                             \
        ::rbft::bench::Harness harness{name, title};              \
        ::rbft::bench::register_points(harness);                  \
        return harness.run(argc, argv);                           \
    }
