#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>

#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, v, u] : rows_) {
        if (n == name) {
            v = value;
            u = unit;
            return;
        }
    }
    rows_.emplace_back(name, value, unit);
}

void Metrics::write_json(std::ostream& out) const {
    out << '{';
    bool first = true;
    char buf[64];
    for (const auto& [name, value, unit] : rows_) {
        if (!first) out << ',';
        first = false;
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
        out << '"' << name << "\":[" << buf << ",\"" << unit << "\"]";
    }
    out << '}';
}

std::optional<double> Outcomes::percentile(double q) const {
    const std::uint64_t n = attempted();
    if (n == 0) return std::nullopt;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    if (n - rank < kMinBeyond) return std::nullopt;
    // Failed requests rank above every completion.
    if (rank > latencies_ms_.size()) return std::nullopt;
    if (!sorted_) {
        std::sort(latencies_ms_.begin(), latencies_ms_.end());
        sorted_ = true;
    }
    return latencies_ms_[rank - 1];
}

std::uint32_t SpanLog::open(const char* name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNoParent : stack_.back(), mono_ns(), 0});
    stack_.push_back(index);
    return index;
}

void SpanLog::close(std::uint32_t index) {
    spans_[index].end_ns = mono_ns();
    stack_.pop_back();
}

std::uint64_t SpanLog::total_ns(const std::string& name) const {
    std::uint64_t total = 0;
    for (const Span& s : spans_) {
        if (name == s.name) total += s.end_ns - s.start_ns;
    }
    return total;
}

double SpanLog::mean_ns(const std::string& name) const {
    std::uint64_t total = 0, count = 0;
    for (const Span& s : spans_) {
        if (name == s.name) {
            total += s.end_ns - s.start_ns;
            ++count;
        }
    }
    return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
}

std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>>
SpanLog::self_times() const {
    // Children nest strictly inside their parent (RAII scopes), so the
    // covered part of a parent is the sum of its direct children.
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> agg;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
        auto& [count, sum, self] = agg[spans_[i].name];
        count += 1;
        sum += total;
        self += total - std::min(total, child_ns[i]);
    }
    std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>> out;
    for (const auto& [name, v] : agg) {
        out.emplace_back(name, std::get<0>(v), std::get<1>(v), std::get<2>(v));
    }
    return out;
}

void SpanLog::write_json(std::ostream& out) const {
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"spans\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":";
        if (s.parent == kNoParent) {
            out << "null";
        } else {
            out << s.parent;
        }
        out << ",\"start_ns\":" << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin)
            << '}' << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\"self\":{";
    bool first = true;
    for (const auto& [name, count, total, self] : self_times()) {
        out << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << count
            << ",\"total_ns\":" << total << ",\"self_ns\":" << self << '}';
        first = false;
    }
    out << "}}\n";
}

std::uint64_t mono_ns() noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

double process_cpu_s() noexcept {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() noexcept {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_latency_metrics(Metrics& m, const Outcomes& outcomes) {
    if (const auto p50 = outcomes.percentile(0.5)) m.set("p50_ms", *p50, "ms");
    if (const auto p99 = outcomes.percentile(0.99)) m.set("p99_ms", *p99, "ms");
    if (const auto p999 = outcomes.percentile(0.999)) m.set("p999_ms", *p999, "ms");
    const auto attempted = static_cast<double>(outcomes.attempted());
    m.set("latency_samples", attempted, "count");
    m.set("failed_pct",
          attempted == 0 ? 0.0 : 100.0 * static_cast<double>(outcomes.failed_count()) / attempted,
          "%");
}

int print_result(bool correct, const Outcomes& outcomes, const Metrics& metrics,
                 const std::vector<std::string>& violations) {
    std::ostringstream out;
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << outcomes.attempted() << ",\"failed\":" << outcomes.failed_count()
        << ",\"metrics\":";
    metrics.write_json(out);
    out << ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
        std::string v = violations[i];
        std::replace(v.begin(), v.end(), '"', '\'');
        out << (i ? "," : "") << '"' << v << '"';
    }
    out << "]}\n";
    std::cout << out.str() << std::flush;
    return correct ? 0 : 1;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

void crypto_microbench(std::uint32_t n, Metrics& out) {
    using namespace rbft;
    constexpr int kBatches = 5;
    constexpr int kIters = 4000;
    const crypto::KeyStore keys(0x5eedULL);
    const crypto::Principal client = crypto::Principal::client(ClientId{3});
    const crypto::SymmetricKey key = keys.pairwise_key(client, crypto::Principal::node(NodeId{1}));
    Bytes body(8, 0xAB);
    Digest digest = crypto::sha256(BytesView(body.data(), body.size()));

    std::vector<double> mac_ns, build_ns, verify_ns;
    std::uint64_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
        std::uint64_t t0 = mono_ns();
        for (int i = 0; i < kIters; ++i) {
            digest.bytes[0] = static_cast<std::uint8_t>(i);
            const Digest mac =
                crypto::hmac_sha256(key, BytesView(digest.bytes.data(), digest.bytes.size()));
            sink += mac.bytes[0];
        }
        mac_ns.push_back(static_cast<double>(mono_ns() - t0) / kIters);

        std::vector<crypto::MacAuthenticator> auths(kIters);
        t0 = mono_ns();
        for (int i = 0; i < kIters; ++i) {
            digest.bytes[0] = static_cast<std::uint8_t>(i);
            auths[static_cast<std::size_t>(i)] = crypto::make_authenticator(keys, client, n, digest);
        }
        build_ns.push_back(static_cast<double>(mono_ns() - t0) / kIters);

        t0 = mono_ns();
        for (int i = 0; i < kIters; ++i) {
            digest.bytes[0] = static_cast<std::uint8_t>(i);
            sink += crypto::verify_authenticator(keys, auths[static_cast<std::size_t>(i)],
                                                 NodeId{static_cast<std::uint32_t>(i) % n}, digest)
                        ? 1
                        : 0;
        }
        verify_ns.push_back(static_cast<double>(mono_ns() - t0) / kIters);
    }
    if (sink == 0) std::fprintf(stderr, "crypto microbench: no work observed\n");
    out.set("crypto.mac_ns", median(mac_ns), "ns");
    out.set("crypto.auth_build_ns", median(build_ns), "ns");
    out.set("crypto.auth_verify_ns", median(verify_ns), "ns");
}

}  // namespace perfbench

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: rbft_bench sim --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n"
                 "       rbft_bench client --config <json> --seed <n> --seconds <s> --rate <req/s> "
                 "--trace <0|1> [--probe-only] [--out <dir>]\n"
                 "       rbft_bench selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string_view command = argv[1];
    perfbench::Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--probe-only") {
            options.probe_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char* value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value);
        } else if (arg == "--trace") {
            options.trace = std::string_view(value) == "1";
        } else if (arg == "--out") {
            options.out_dir = value;
        } else if (arg == "--config") {
            options.config = value;
        } else if (arg == "--rate") {
            options.rate = std::atof(value);
        } else {
            usage();
            return 2;
        }
    }
    if (command == "sim") return perfbench::run_sim(options);
    if (command == "client") return perfbench::run_client(options);
    if (command == "selftest") return perfbench::run_selftest();
    usage();
    return 2;
}
