// Shared pieces of the rbft_bench program: metric tables, the latency and
// failure accounting every workload reports through, the in-memory span
// log of traced runs, and process resource readings.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered (name, value, unit) table; printed as one JSON object whose
/// values are [value, unit] pairs.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    void write_json(std::ostream& out) const;

private:
    std::vector<std::tuple<std::string, double, std::string>> rows_;
};

/// Per-request outcome accounting for one measurement window.  Every
/// request due in the window is attempted; one that was refused or never
/// completed is failed and ranks above every completion, so it misses
/// every latency percentile.
class Outcomes {
public:
    void completed(double latency_ms) { latencies_ms_.push_back(latency_ms); }
    void failed(std::uint64_t n = 1) { failed_ += n; }

    [[nodiscard]] std::uint64_t attempted() const noexcept {
        return latencies_ms_.size() + failed_;
    }
    [[nodiscard]] std::uint64_t failed_count() const noexcept { return failed_; }

    /// Nearest-rank q-quantile over all attempted requests.  Empty when
    /// fewer than kMinBeyond samples lie beyond it, or when the rank falls
    /// on a failed request (that percentile was missed).
    [[nodiscard]] std::optional<double> percentile(double q) const;

    static constexpr std::uint64_t kMinBeyond = 10;

private:
    mutable std::vector<double> latencies_ms_;
    mutable bool sorted_ = false;
    std::uint64_t failed_ = 0;
};

/// Spans recorded by the benchmark's own code around its calls into the
/// layers: name, start, end, and the enclosing span.  Kept in memory and
/// written out when the run ends.  A null SpanLog* disables recording.
class SpanLog {
public:
    struct Span {
        const char* name;
        std::uint32_t parent;  // kNoParent for roots
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

    class Scope {
    public:
        Scope(SpanLog* log, const char* name) : log_(log), index_(log ? log->open(name) : 0) {}
        ~Scope() {
            if (log_) log_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog* log_;
        std::uint32_t index_;
    };

    /// Total duration of every span called `name`.
    [[nodiscard]] std::uint64_t total_ns(const std::string& name) const;
    /// Mean duration of spans called `name` (0 when there are none).
    [[nodiscard]] double mean_ns(const std::string& name) const;
    /// Per span name: (count, total ns, self ns), where self time is the
    /// span's duration minus the part its child spans cover.
    [[nodiscard]] std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>>
    self_times() const;

    void write_json(std::ostream& out) const;

private:
    std::uint32_t open(const char* name);
    void close(std::uint32_t index);

    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

[[nodiscard]] std::uint64_t mono_ns() noexcept;
/// User + system CPU seconds of this process.
[[nodiscard]] double process_cpu_s() noexcept;
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb() noexcept;

/// Times hmac_sha256 / make_authenticator / verify_authenticator at the
/// request shapes of an N-node cluster; adds crypto.mac_ns,
/// crypto.auth_build_ns and crypto.auth_verify_ns.
void crypto_microbench(std::uint32_t n, Metrics& out);

/// Adds p50_ms, p99_ms and p999_ms (each only where the percentile rule
/// allows it), latency_samples and failed_pct.
void add_latency_metrics(Metrics& m, const Outcomes& outcomes);

/// Prints the result line {"correct", "attempted", "failed", "metrics",
/// "violations"} and returns the exit code (non-zero unless correct).
int print_result(bool correct, const Outcomes& outcomes, const Metrics& metrics,
                 const std::vector<std::string>& violations);

/// Median of a non-empty sample (copied).
[[nodiscard]] double median(std::vector<double> values);

/// Writes `text` to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  // traced runs write spans/profile here
    // realnode client only
    std::string config;
    double rate = 0.0;
    bool probe_only = false;
};

/// Subcommands.  Each prints one JSON result line on stdout and returns
/// the process exit code.
int run_sim(const Options& options);
int run_client(const Options& options);
int run_selftest();

/// Sim-time outputs of one short fig7-steady repetition, as one string; the
/// self-test compares two same-seed runs byte for byte.
std::string sim_digest_for_selftest(std::uint64_t seed);

}  // namespace perfbench
