// The realnode-loopback client: one workload::ClientEndpoint over
// runtime::SocketFabric (one connection per node), driven open loop on a
// wall-clock Poisson schedule through runtime::WallClockExecutor.
// Latency runs from when a request was due to when f+1 matching replies
// arrived; how late the generator ran is reported separately.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "obs/recorder.hpp"
#include "runtime/config.hpp"
#include "runtime/executor.hpp"
#include "runtime/fabric.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"
#include "workload/client.hpp"

namespace perfbench {
namespace {

using namespace rbft;

constexpr double kProbeTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 5.0;

struct Phase {
    Outcomes outcomes;
    std::vector<double> lateness_ms;
    std::uint64_t window_completions = 0;
    std::uint64_t completed = 0;
    double first_due_s = 0.0;
    double last_done_s = 0.0;
    double cpu_s = 0.0;
};

class OpenLoopClient {
public:
    OpenLoopClient(const runtime::ClusterSpec& spec, bool traced)
        : keys_(spec.seed),
          transport_(clock_, spec.seed ^ 0xC11E57ULL),
          fabric_(simulator_, transport_, spec, std::nullopt),
          executor_(clock_, simulator_, transport_),
          client_(ClientId{0}, simulator_, fabric_, keys_, spec.n(), spec.f, behavior()) {
        if (traced) recorder_.enable_profiling();
        client_.set_completion_callback([this](RequestId rid, Duration) { on_complete(rid); });
    }

    /// Sends one request and waits for its reply; false on timeout.
    bool probe() {
        const TimePoint deadline = clock_.now() + seconds(kProbeTimeoutS);
        send(clock_.now(), nullptr);
        while (client_.completed() == 0 && clock_.now() < deadline) {
            executor_.step(milliseconds(1.0));
        }
        first_reply_ns_ = mono_ns();
        return client_.completed() > 0;
    }

    /// One open-loop window of `duration` at `rate`, then a drain.
    Phase run_phase(double rate, double duration, Rng& rng, SpanLog* spans) {
        if (spans) client_.set_recorder(&recorder_);
        std::vector<Duration> arrivals;
        for (double t = 0.0;;) {
            t += -std::log(1.0 - rng.next_double()) / rate;
            if (t >= duration) break;
            arrivals.push_back(seconds(t));
        }
        Phase phase;
        phase_ = &phase;
        const double cpu_start = process_cpu_s();
        const TimePoint start = clock_.now();
        window_to_ = start + seconds(duration);
        phase.first_due_s = start.seconds();
        std::size_t next = 0;
        while (next < arrivals.size()) {
            const TimePoint now = clock_.now();
            while (next < arrivals.size() && start + arrivals[next] <= now) {
                const TimePoint due = start + arrivals[next++];
                phase.lateness_ms.push_back((clock_.now() - due).millis());
                SpanLog::Scope span(spans, "send_one");
                send(due, &phase);
            }
            if (next == arrivals.size()) break;
            Duration wait = (start + arrivals[next]) - clock_.now();
            if (wait.ns < 0) wait = Duration{};
            {
                SpanLog::Scope span(spans, "step");
                executor_.step(wait);
            }
            // poll(2) waits in whole milliseconds; nap through shorter gaps
            // instead of spinning a core the nodes need.
            const Duration left = (start + arrivals[next]) - clock_.now();
            if (left.ns > 0 && left < milliseconds(1.0)) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(std::min<std::int64_t>(left.ns, 100'000)));
            }
        }
        const TimePoint drain_end = clock_.now() + seconds(kDrainTimeoutS);
        while (!due_.empty() && clock_.now() < drain_end) {
            SpanLog::Scope span(spans, "step");
            executor_.step(milliseconds(1.0));
        }
        phase.outcomes.failed(due_.size());
        due_.clear();
        phase.cpu_s = process_cpu_s() - cpu_start;
        phase_ = nullptr;
        client_.set_recorder(nullptr);
        return phase;
    }

    [[nodiscard]] std::uint64_t first_reply_ns() const noexcept { return first_reply_ns_; }
    [[nodiscard]] workload::ClientEndpoint& endpoint() noexcept { return client_; }
    [[nodiscard]] const crypto::KeyStore& keys() const noexcept { return keys_; }
    [[nodiscard]] const runtime::SocketFabric& fabric() const noexcept { return fabric_; }
    [[nodiscard]] const runtime::TcpTransport& transport() const noexcept { return transport_; }
    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] obs::Recorder& recorder() noexcept { return recorder_; }

private:
    static workload::ClientBehavior behavior() {
        workload::ClientBehavior b;
        b.payload_bytes = 8;
        b.set_retransmit_policy(BackoffPolicy::chaos_client(milliseconds(200.0)));
        return b;
    }

    void send(TimePoint due, Phase* phase) {
        const RequestId rid = client_.send_one();
        if (phase) due_.emplace(rid, due);
    }

    void on_complete(RequestId rid) {
        const TimePoint now = clock_.now();
        const auto it = due_.find(rid);
        if (it == due_.end() || phase_ == nullptr) return;  // the probe
        Phase& phase = *phase_;
        phase.outcomes.completed((now - it->second).millis());
        ++phase.completed;
        if (now <= window_to_) ++phase.window_completions;
        phase.last_done_s = now.seconds();
        due_.erase(it);
    }

    runtime::SteadyClock clock_;
    sim::Simulator simulator_;
    crypto::KeyStore keys_;
    runtime::TcpTransport transport_;
    runtime::SocketFabric fabric_;
    runtime::WallClockExecutor executor_;
    obs::Recorder recorder_;
    workload::ClientEndpoint client_;
    std::unordered_map<RequestId, TimePoint> due_;
    Phase* phase_ = nullptr;
    TimePoint window_to_{};
    std::uint64_t first_reply_ns_ = 0;
};

}  // namespace

int run_client(const Options& options) {
    std::string error;
    const auto spec = runtime::load_cluster_spec(options.config, &error);
    if (!spec) {
        std::fprintf(stderr, "config: %s\n", error.c_str());
        return 2;
    }
    OpenLoopClient client(*spec, options.trace);
    if (!client.probe()) {
        std::fprintf(stderr, "probe request got no reply within %.0f s\n", kProbeTimeoutS);
        return 1;
    }
    Metrics m;
    m.set("first_reply_mono_ns", static_cast<double>(client.first_reply_ns()), "ns");
    if (options.probe_only) {
        return print_result(true, Outcomes{}, m, {});
    }

    Rng rng(options.seed ^ 0x9e3779b9);
    // Traced runs measure half the window untraced, half traced.
    const double traced_share = options.trace ? 0.5 : 0.0;
    Phase plain = client.run_phase(options.rate, options.seconds * (1.0 - traced_share), rng,
                                   nullptr);
    SpanLog spans;
    std::optional<Phase> traced;
    if (options.trace) {
        traced = client.run_phase(options.rate, options.seconds * traced_share, rng, &spans);
    }
    const Phase& p = traced ? *traced : plain;
    const double done = static_cast<double>(std::max<std::uint64_t>(1, p.completed));

    m.set("kreq_s", static_cast<double>(p.window_completions) /
                        (options.seconds * (traced ? traced_share : 1.0)) / 1e3,
          "kreq/s");
    add_latency_metrics(m, p.outcomes);
    m.set("wall_s", p.last_done_s - p.first_due_s, "s");
    Outcomes lateness;
    for (double v : p.lateness_ms) lateness.completed(v);
    m.set("workload.gen_lag_ms", lateness.percentile(0.99).value_or(0.0), "ms");
    m.set("client_cpu_ms_per_kreq", p.cpu_s * 1e3 / (done / 1e3), "ms/kreq");
    m.set("completed", static_cast<double>(plain.completed + (traced ? traced->completed : 0)),
          "count");

    m.set("runtime.retransmissions", static_cast<double>(client.endpoint().retransmissions()),
          "count");

    if (traced) {
        const crypto::CryptoStats& cs = client.keys().stats();
        const double all = static_cast<double>(
            std::max<std::uint64_t>(1, plain.completed + traced->completed + 1));
        m.set("crypto.macs_per_req", static_cast<double>(cs.macs_computed) / all, "count");
        m.set("crypto.digests_per_req", static_cast<double>(cs.digests_computed) / all, "count");
        m.set("crypto.sigs_per_req", static_cast<double>(cs.sigs_computed) / all, "count");
        crypto_microbench(spec->n(), m);
        double build_ns = 0.0, build_calls = 0.0;
        for (const auto& [path, agg] : client.recorder().profiler()->zones_by_path()) {
            if (path.ends_with("client.request_build")) {
                build_ns += static_cast<double>(agg.wall_total_ns);
                build_calls += static_cast<double>(agg.calls);
            }
        }
        m.set("workload.request_build_us", build_calls > 0 ? build_ns / build_calls / 1e3 : 0.0,
              "us");
        const runtime::FabricStats& fs = client.fabric().stats();
        const runtime::TransportStats& ts = client.transport().stats();
        m.set("net.msgs_per_req",
              static_cast<double>(fs.envelopes_sent + fs.envelopes_delivered) / all, "count");
        m.set("net.bytes_per_req", static_cast<double>(ts.bytes_sent + ts.bytes_received) / all,
              "B");
        m.set("net.drops",
              static_cast<double>(ts.sends_dropped + fs.no_route_dropped + fs.decode_rejected +
                                  fs.nic_closed_dropped + fs.unencodable_dropped),
              "count");
        m.set("sim.events_per_req",
              static_cast<double>(client.simulator().dispatched_total()) / all, "count");
        m.set("sim.queue_high_water", static_cast<double>(client.simulator().queue_high_water()),
              "count");
        m.set("runtime.client_send_us", spans.mean_ns("send_one") / 1e3, "us");
        m.set("runtime.step_us", spans.mean_ns("step") / 1e3, "us");
        const double plain_cpu =
            plain.cpu_s / static_cast<double>(std::max<std::uint64_t>(1, plain.completed));
        const double traced_cpu = traced->cpu_s / done;
        m.set("trace_overhead_pct", plain_cpu > 0 ? 100.0 * (traced_cpu / plain_cpu - 1.0) : 0.0,
              "%");
        if (!options.out_dir.empty()) {
            std::ostringstream spans_json, profile_json;
            spans.write_json(spans_json);
            client.recorder().profiler()->write_profile_json(profile_json);
            const std::string stem =
                options.out_dir + "/realnode-loopback-seed" + std::to_string(options.seed);
            if (!write_file(stem + ".spans.json", spans_json.str()) ||
                !write_file(stem + ".profile.json", profile_json.str())) {
                std::fprintf(stderr, "could not write trace files under %s\n",
                             options.out_dir.c_str());
                return 1;
            }
        }
    }
    std::vector<std::string> violations;
    if (client.endpoint().completed() > client.endpoint().sent()) {
        violations.push_back("client completed more requests than it sent");
    }
    return print_result(violations.empty(), p.outcomes, m, violations);
}

}  // namespace perfbench
