// The three simulated workloads: fig7-steady, fig7-overload and
// worst-attack2.  Each repetition builds a fresh core::Cluster, drives it
// open loop through workload::LoadGenerator (Poisson arrivals in simulated
// time), measures one window, drains the window's requests, and checks the
// run's output.  Sim-time metrics are pure functions of the seed; wall
// metrics are medians over every repetition that fits in --seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/attacks.hpp"
#include "bench.hpp"
#include "check/oracles.hpp"
#include "exp/runners.hpp"
#include "obs/recorder.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace perfbench {
namespace {

using namespace rbft;

struct Workload {
    const char* name;
    double load_pct;  // offered load, % of calibrated master-only capacity
    bool attack;      // worst-attack-2 on the master primary's node
    double warmup_s;
    double window_s;
    double drain_cap_s;  // how long the window's requests get to complete
};

// f = 1, 8 B requests, 20 clients, TCP channel (60 us, 10 % jitter, 1 Gb/s).
constexpr Workload kWorkloads[] = {
    {"fig7-steady", 90.0, false, 0.4, 0.8, 2.0},
    {"fig7-overload", 160.0, false, 0.6, 1.4, 1.0},
    {"worst-attack2", 90.0, true, 0.6, 1.4, 2.0},
};
constexpr std::uint32_t kClients = 20;
constexpr std::size_t kPayloadBytes = 8;
constexpr int kMinSetupSamples = 5;

/// Offered rate: the bench_backends formula over the calibrated capacity.
double offered_rate(const Workload& w) {
    return w.load_pct / 100.0 * exp::capacity(exp::Protocol::kRbftTcp, kPayloadBytes) * 0.95;
}

/// The workload seed, mixed (splitmix64) into the run's input seed.
std::uint64_t input_seed(std::uint64_t seed) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Per-layer data taken from the recorder's event stream (traced reps).
struct EventStats {
    TimePoint from{}, to{};
    std::unordered_map<std::uint64_t, TimePoint> received, dispatched;
    std::vector<double> verify_wait_ms, exec_wait_ms, order_ms;
    double batch_requests = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t votes[5] = {};
    double ratio_min = std::numeric_limits<double>::infinity();

    static std::uint64_t key(const obs::TraceEvent& e) {
        return (static_cast<std::uint64_t>(e.node) << 60) | (e.a << 40) | e.b;
    }

    void on_event(const obs::TraceEvent& e) {
        switch (e.type) {
            case obs::EventType::kRequestReceived:
                if (e.at > from) received.emplace(key(e), e.at);
                break;
            case obs::EventType::kRequestDispatched:
                if (auto it = received.find(key(e)); it != received.end()) {
                    verify_wait_ms.push_back((e.at - it->second).millis());
                    received.erase(it);
                    dispatched.emplace(key(e), e.at);
                }
                break;
            case obs::EventType::kRequestExecuted:
                if (auto it = dispatched.find(key(e)); it != dispatched.end()) {
                    exec_wait_ms.push_back((e.at - it->second).millis());
                    dispatched.erase(it);
                }
                break;
            case obs::EventType::kBatchDelivered:
                if (e.at > from && e.instance == 0) {
                    order_ms.push_back(e.x * 1e3);
                    batch_requests += static_cast<double>(e.b);
                    ++batches;
                }
                break;
            case obs::EventType::kInstanceChangeVote:
                if (e.b < 5) ++votes[e.b];
                break;
            case obs::EventType::kMonitorVerdict:
                if (e.at > from && e.at <= to && e.b != obs::kVerdictNotJudged) {
                    ratio_min = std::min(ratio_min, e.x);
                }
                break;
            default:
                break;
        }
    }
};

/// Observability attached to a traced repetition.
struct Tracing {
    obs::Recorder* recorder = nullptr;
    check::OracleSuite* oracles = nullptr;
    EventStats events;
    Metrics layers;
};

struct RepResult {
    Outcomes outcomes;                    // requests due in the window
    std::uint64_t window_completions = 0;  // completions inside the window
    std::uint64_t completed_total = 0;
    std::uint64_t events = 0;
    std::uint64_t instance_changes = 0;
    double setup_s = 0.0;
    double run_s = 0.0;  // wall time of the timed simulation
    double cpu_s = 0.0;
    std::vector<std::string> violations;
    std::string sim_digest;  // every sim-time output, for determinism checks
    SpanLog spans;
};

/// Completion accounting shared by the run's clients.
struct Accounting {
    TimePoint from{}, to{};
    Outcomes outcomes;
    std::uint64_t window_completions = 0;
    std::uint64_t window_done = 0;
    std::uint64_t completed_total = 0;
    double latency_sum_ms = 0.0;

    void on_complete(TimePoint now, Duration latency) {
        // Sends happen exactly when due, so due = completion - latency.
        const TimePoint due = now - latency;
        ++completed_total;
        if (now > from && now <= to) ++window_completions;
        if (due > from && due <= to) {
            outcomes.completed(latency.millis());
            latency_sum_ms += latency.millis();
            ++window_done;
        }
    }
};

std::uint64_t sent_total(const std::vector<std::unique_ptr<workload::ClientEndpoint>>& clients) {
    std::uint64_t sent = 0;
    for (const auto& c : clients) sent += c->sent();
    return sent;
}

/// Cores whose busy time the traced run reports, by role.
struct CoreBusy {
    double verification = 0, propagation = 0, execution = 0, replica = 0;
};

CoreBusy core_busy(core::Cluster& cluster, const std::vector<std::uint32_t>& correct) {
    CoreBusy b;
    for (std::uint32_t id : correct) {
        core::Node& node = cluster.node(id);
        b.verification += node.cpu().core(core::Node::kVerificationCore).busy_time().seconds();
        b.propagation += node.cpu().core(core::Node::kPropagationCore).busy_time().seconds();
        b.execution += node.cpu().core(core::Node::kExecutionCore).busy_time().seconds();
        for (std::uint32_t i = 0; i < node.instance_count(); ++i) {
            b.replica += node.cpu().core(core::Node::kFirstReplicaCore + i).busy_time().seconds() /
                         node.instance_count();
        }
    }
    return b;
}

/// Safety of the master-instance commit logs: every pair of correct nodes
/// agrees on each (seq, fingerprint) both hold, compared by seq.
void check_commit_logs(core::Cluster& cluster, const std::vector<std::uint32_t>& correct,
                       std::vector<std::string>& violations) {
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> canonical;
    for (std::uint32_t id : correct) {
        const auto& log = cluster.node(id).commit_log();
        if (log.empty()) violations.push_back("node " + std::to_string(id) + " committed nothing");
        for (const auto& [seq, fp] : log) {
            auto [it, fresh] = canonical.emplace(seq, std::make_pair(fp, id));
            if (!fresh && it->second.first != fp) {
                violations.push_back("commit logs of nodes " + std::to_string(it->second.second) +
                                     " and " + std::to_string(id) + " disagree at seq " +
                                     std::to_string(seq));
            }
        }
    }
}

/// Runs the simulation in slices of `step`, each inside a span.
void run_sliced(sim::Simulator& sim, TimePoint until, Duration step, SpanLog& spans,
                const char* name) {
    while (sim.now() < until) {
        SpanLog::Scope slice(&spans, name);
        sim.run_until(std::min(until, sim.now() + step));
    }
}

/// One repetition; `setup_only` stops after the first dispatched event.
RepResult run_rep(const Workload& w, std::uint64_t seed, Tracing* tracing, bool setup_only) {
    RepResult r;
    SpanLog& spans = r.spans;
    SpanLog::Scope rep_span(&spans, "rep");

    obs::Recorder plain;
    obs::Recorder& recorder = tracing ? *tracing->recorder : plain;
    Accounting acc;
    acc.from = TimePoint{} + seconds(w.warmup_s);
    acc.to = acc.from + seconds(w.window_s);

    // -- Set-up: cluster, clients, pre-drawn arrivals, first event. --------
    const std::uint64_t setup_start = mono_ns();
    std::unique_ptr<core::Cluster> cluster;
    std::unique_ptr<attacks::WorstAttack2> attack;
    std::vector<std::unique_ptr<workload::ClientEndpoint>> clients;
    std::unique_ptr<workload::LoadGenerator> load;
    {
        SpanLog::Scope setup_span(&spans, "setup");
        {
            SpanLog::Scope s(&spans, "cluster.construct");
            core::ClusterConfig cfg;
            cfg.f = 1;
            cfg.seed = seed;
            cfg.recorder = &recorder;
            cluster = std::make_unique<core::Cluster>(cfg);
            if (w.attack) {
                attack = std::make_unique<attacks::WorstAttack2>(*cluster);
                attack->install();
            }
            cluster->start();
            if (attack) attack->start();
        }
        {
            SpanLog::Scope s(&spans, "clients.construct");
            workload::ClientBehavior behavior;
            behavior.payload_bytes = kPayloadBytes;
            behavior.message_pool = cluster->message_pool();
            for (std::uint32_t c = 0; c < kClients; ++c) {
                clients.push_back(std::make_unique<workload::ClientEndpoint>(
                    ClientId{c}, cluster->simulator(), cluster->network(), cluster->keys(),
                    cluster->config().n(), cluster->config().f, behavior));
                if (tracing) clients.back()->set_recorder(&recorder);
                sim::Simulator& simulator = cluster->simulator();
                clients.back()->set_completion_callback(
                    [&acc, &simulator](RequestId, Duration latency) {
                        acc.on_complete(simulator.now(), latency);
                    });
            }
        }
        {
            SpanLog::Scope s(&spans, "load.start");
            std::vector<workload::ClientEndpoint*> ptrs;
            for (const auto& c : clients) ptrs.push_back(c.get());
            load = std::make_unique<workload::LoadGenerator>(
                cluster->simulator(), std::move(ptrs),
                workload::LoadSpec::constant(offered_rate(w), acc.to - TimePoint{}, kClients),
                Rng(seed ^ 0x9e3779b9));
            load->start();
        }
        {
            SpanLog::Scope s(&spans, "first_event");
            sim::Simulator& simulator = cluster->simulator();
            if (const auto first = simulator.next_event_time()) simulator.run_until(*first);
        }
    }
    r.setup_s = static_cast<double>(mono_ns() - setup_start) * 1e-9;
    if (setup_only) return r;

    // -- Timed simulation: warm-up, window, drain. ---------------------------
    sim::Simulator& sim = cluster->simulator();
    std::vector<std::uint32_t> correct;
    for (std::uint32_t i = 0; i < cluster->node_count(); ++i) {
        if (cluster->node(i).faulty() || (attack && raw(attack->faulty_node()) == i)) continue;
        correct.push_back(i);
    }
    if (tracing) {
        tracing->events.from = acc.from;
        tracing->events.to = acc.to;
    }
    std::uint64_t sent_from = 0, sent_to = 0;
    CoreBusy busy_from{}, busy_to{};
    const double cpu_start = process_cpu_s();
    const std::uint64_t run_start = mono_ns();
    {
        SpanLog::Scope run_span(&spans, "run");
        const Duration slice = milliseconds(100.0);
        run_sliced(sim, acc.from, slice, spans, "run_until");
        sent_from = sent_total(clients);
        busy_from = core_busy(*cluster, correct);
        run_sliced(sim, acc.to, slice, spans, "run_until");
        sent_to = sent_total(clients);
        busy_to = core_busy(*cluster, correct);
        const TimePoint cap = acc.to + seconds(w.drain_cap_s);
        while (acc.window_done < sent_to - sent_from && sim.now() < cap) {
            SpanLog::Scope drain(&spans, "drain");
            sim.run_until(std::min(cap, sim.now() + milliseconds(20.0)));
        }
    }
    r.run_s = static_cast<double>(mono_ns() - run_start) * 1e-9;
    r.cpu_s = process_cpu_s() - cpu_start;

    // -- Outcomes and output checks. -----------------------------------------
    const std::uint64_t attempted = sent_to - sent_from;
    if (acc.window_done > attempted) {
        r.violations.push_back("more window completions than window requests");
    }
    acc.outcomes.failed(attempted - std::min(attempted, acc.window_done));
    r.outcomes = acc.outcomes;
    r.window_completions = acc.window_completions;
    r.completed_total = acc.completed_total;
    r.events = sim.dispatched_total();
    for (const auto& c : clients) {
        if (c->completed() > c->sent()) {
            r.violations.push_back("client " + std::to_string(raw(c->id())) +
                                   " completed more requests than it sent");
        }
    }
    check_commit_logs(*cluster, correct, r.violations);
    const obs::MetricsRegistry& reg = recorder.metrics();
    for (std::uint32_t id : correct) {
        r.instance_changes += reg.counter_value("rbft.instance_changes_done", id);
    }
    char digest[256];
    std::snprintf(digest, sizeof digest, "%llu %llu %llu %llu %llu %llu %.17g %zu",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(acc.window_done),
                  static_cast<unsigned long long>(acc.window_completions),
                  static_cast<unsigned long long>(acc.completed_total),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.instance_changes), acc.latency_sum_ms,
                  cluster->node(correct.front()).commit_log().size());
    r.sim_digest = digest;

    if (tracing) {
        Metrics& m = tracing->layers;
        EventStats& ev = tracing->events;
        tracing->oracles->finalize();
        for (const auto& v : tracing->oracles->violations()) {
            r.violations.push_back(std::string("oracle ") + check::oracle_name(v.oracle) + ": " +
                                   v.detail);
        }
        const auto join = ev.votes[static_cast<int>(core::Node::IcReason::kJoin)];
        const auto spec = ev.votes[static_cast<int>(core::Node::IcReason::kSpeculation)];
        if (!w.attack && join + spec > 0) {
            r.violations.push_back("fault-free run voted join/speculation instance changes");
        }

        const double done = static_cast<double>(std::max<std::uint64_t>(1, r.completed_total));
        const crypto::CryptoStats& cs = cluster->keys().stats();
        m.set("crypto.macs_per_req", static_cast<double>(cs.macs_computed) / done, "count");
        m.set("crypto.digests_per_req", static_cast<double>(cs.digests_computed) / done, "count");
        m.set("crypto.sigs_per_req", static_cast<double>(cs.sigs_computed) / done, "count");

        const obs::prof::Profiler& prof = *recorder.profiler();
        std::map<std::string, obs::prof::ZoneAgg> zones;
        for (const auto& [path, agg] : prof.zones_by_path()) {
            const std::string leaf = path.substr(path.rfind(';') + 1);
            obs::prof::ZoneAgg& z = zones[leaf];
            z.calls += agg.calls;
            z.wall_self_ns += agg.wall_self_ns;
            z.wall_total_ns += agg.wall_total_ns;
        }
        const auto mean_us = [&zones](const char* name) {
            const obs::prof::ZoneAgg& z = zones[name];
            return z.calls == 0 ? 0.0
                                : static_cast<double>(z.wall_total_ns) / z.calls / 1e3;
        };
        m.set("workload.request_build_us", mean_us("client.request_build"), "us");

        m.set("net.msgs_per_req",
              static_cast<double>(reg.counter_sum("net.messages_sent")) / done, "count");
        m.set("net.bytes_per_req", static_cast<double>(reg.counter_sum("net.bytes_sent")) / done,
              "B");
        m.set("wire.allocs_per_req", static_cast<double>(prof.counter_sum("wire.allocs")) / done,
              "count");
        m.set("wire.bytes_copied_per_req",
              static_cast<double>(prof.counter_sum("wire.bytes_copied")) / done, "B");
        m.set("net.send_us", mean_us("net.send"), "us");
        m.set("net.deliver_us", mean_us("net.deliver"), "us");
        m.set("net.drops",
              static_cast<double>(reg.counter_sum("net.messages_lost") +
                                  reg.counter_sum("net.dropped_closed_nic") +
                                  reg.counter_sum("net.dropped_fault")),
              "count");

        const double run_ns = static_cast<double>(spans.total_ns("run"));
        m.set("sim.events_per_req", static_cast<double>(r.events) / done, "count");
        m.set("sim.queue_high_water", static_cast<double>(sim.queue_high_water()), "count");
        m.set("sim.dispatch_self_pct",
              run_ns > 0 ? 100.0 * static_cast<double>(zones["sim.dispatch"].wall_self_ns) / run_ns
                         : 0.0,
              "%");

        m.set("bft.order_ms", ev.order_ms.empty() ? 0.0 : median(ev.order_ms), "ms");
        m.set("bft.batch_size",
              ev.batches == 0 ? 0.0 : ev.batch_requests / static_cast<double>(ev.batches),
              "count");
        m.set("bft.on_message_calls_per_req",
              static_cast<double>(zones["bft.on_message"].calls) / done, "count");
        m.set("bft.view_changes", static_cast<double>(reg.counter_sum("bft.view_changes")),
              "count");

        Outcomes verify, exec;
        for (double v : ev.verify_wait_ms) verify.completed(v);
        for (double v : ev.exec_wait_ms) exec.completed(v);
        m.set("rbft.verify_wait_p50_ms", verify.percentile(0.5).value_or(0.0), "ms");
        m.set("rbft.verify_wait_p99_ms", verify.percentile(0.99).value_or(0.0), "ms");
        m.set("rbft.exec_wait_ms", exec.percentile(0.5).value_or(0.0), "ms");
        const auto received = reg.counter_sum("rbft.requests_received");
        m.set("rbft.verified_ratio",
              received == 0 ? 0.0
                            : static_cast<double>(reg.counter_sum("rbft.requests_verified")) /
                                  static_cast<double>(received),
              "ratio");
        const double node_window = w.window_s * static_cast<double>(correct.size());
        m.set("rbft.core_util.verification",
              (busy_to.verification - busy_from.verification) / node_window, "ratio");
        m.set("rbft.core_util.propagation",
              (busy_to.propagation - busy_from.propagation) / node_window, "ratio");
        m.set("rbft.core_util.replica", (busy_to.replica - busy_from.replica) / node_window,
              "ratio");
        m.set("rbft.core_util.execution", (busy_to.execution - busy_from.execution) / node_window,
              "ratio");
        m.set("rbft.instance_changes", static_cast<double>(r.instance_changes), "count");
        m.set("rbft.ic_votes.throughput",
              static_cast<double>(ev.votes[static_cast<int>(core::Node::IcReason::kThroughput)]),
              "count");
        m.set("rbft.ic_votes.lambda",
              static_cast<double>(ev.votes[static_cast<int>(core::Node::IcReason::kLambda)]),
              "count");
        m.set("rbft.ic_votes.omega",
              static_cast<double>(ev.votes[static_cast<int>(core::Node::IcReason::kOmega)]),
              "count");
        m.set("rbft.monitor_ratio_min", std::isfinite(ev.ratio_min) ? ev.ratio_min : 0.0,
              "ratio");
    }
    return r;
}

}  // namespace

std::string sim_digest_for_selftest(std::uint64_t seed) {
    const Workload w{"selftest", 90.0, false, 0.1, 0.2, 0.5};
    return run_rep(w, seed, nullptr, false).sim_digest;
}

int run_sim(const Options& options) {
    const Workload* found = nullptr;
    for (const Workload& w : kWorkloads) {
        if (options.workload == w.name) found = &w;
    }
    if (found == nullptr) {
        std::fprintf(stderr, "unknown sim workload '%s'\n", options.workload.c_str());
        return 2;
    }
    const Workload& w = *found;
    std::vector<std::string> violations;
    Metrics m;

    if (!options.trace) {
        // Sim-time metrics come from the first repetition; the rest re-run
        // the same input for wall timing and must reproduce it exactly.  The
        // first repetition also warms the process (allocator, page faults),
        // so wall metrics skip it whenever a later one exists.
        const std::uint64_t start = mono_ns();
        const std::uint64_t seed = input_seed(options.seed);
        std::optional<RepResult> first;
        std::vector<double> run_s, cpu_ms_per_kreq, setup_s;
        for (int rep = 0;; ++rep) {
            RepResult r = run_rep(w, seed, nullptr, false);
            violations.insert(violations.end(), r.violations.begin(), r.violations.end());
            if (first && r.sim_digest != first->sim_digest) {
                violations.push_back("same input, different sim-time outputs: " +
                                     first->sim_digest + " vs " + r.sim_digest);
            }
            run_s.push_back(r.run_s);
            setup_s.push_back(r.setup_s);
            cpu_ms_per_kreq.push_back(r.cpu_s * 1e3 /
                                      (static_cast<double>(r.completed_total) / 1e3));
            const double elapsed = static_cast<double>(mono_ns() - start) * 1e-9;
            const double per_rep = elapsed / (rep + 1);
            if (!first) first = std::move(r);
            if (elapsed + per_rep > options.seconds) break;
        }
        while (static_cast<int>(setup_s.size()) < kMinSetupSamples) {
            setup_s.push_back(run_rep(w, seed, nullptr, true).setup_s);
        }
        const Outcomes& outcomes = first->outcomes;
        m.set("kreq_s", static_cast<double>(first->window_completions) / w.window_s / 1e3,
              "kreq/s");
        add_latency_metrics(m, outcomes);
        const auto warm = [](std::vector<double> v) {
            if (v.size() > 1) v.erase(v.begin());
            return median(std::move(v));
        };
        m.set("wall_s", warm(run_s), "s");
        m.set("cpu_ms_per_kreq", warm(cpu_ms_per_kreq), "ms/kreq");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        m.set("instance_changes", static_cast<double>(first->instance_changes), "count");
        m.set("reps_timed", static_cast<double>(run_s.size()), "count");
        return print_result(violations.empty(), outcomes, m, violations);
    }

    // Traced run: the same input untraced, then traced; per-layer numbers
    // come from the traced repetition, the overhead from the pair.  A first
    // untimed repetition warms the process.
    const std::uint64_t seed = input_seed(options.seed);
    (void)run_rep(w, seed, nullptr, false);
    RepResult plain = run_rep(w, seed, nullptr, false);
    obs::Recorder recorder;
    recorder.enable_profiling();
    check::OracleConfig oc;
    oc.n = 4;
    oc.f = 1;
    check::OracleSuite oracles(oc);
    Tracing tracing;
    tracing.recorder = &recorder;
    tracing.oracles = &oracles;
    recorder.set_listener([&](const obs::TraceEvent& e) {
        oracles.on_event(e);
        tracing.events.on_event(e);
    });
    RepResult traced = run_rep(w, seed, &tracing, false);
    violations = plain.violations;
    violations.insert(violations.end(), traced.violations.begin(), traced.violations.end());
    if (plain.sim_digest != traced.sim_digest) {
        violations.push_back("tracing changed the simulation: " + plain.sim_digest + " vs " +
                             traced.sim_digest);
    }
    m = tracing.layers;
    crypto_microbench(4, m);
    const double plain_ns = static_cast<double>(plain.spans.total_ns("run"));
    const double traced_ns = static_cast<double>(traced.spans.total_ns("run"));
    m.set("sim.ns_per_event", plain_ns / static_cast<double>(std::max<std::uint64_t>(1, plain.events)),
          "ns");
    m.set("trace_overhead_pct", plain_ns > 0 ? 100.0 * (traced_ns / plain_ns - 1.0) : 0.0, "%");
    // Ungated wall-clock end-to-end numbers of the untraced repetition.
    m.set("wall_s", plain.run_s, "s");
    m.set("cpu_ms_per_kreq",
          plain.cpu_s * 1e3 / (static_cast<double>(std::max<std::uint64_t>(1, plain.completed_total)) / 1e3),
          "ms/kreq");
    if (const auto p99 = plain.outcomes.percentile(0.99)) m.set("p99_ms", *p99, "ms");

    if (!options.out_dir.empty()) {
        const std::string stem = options.out_dir + "/" + w.name + "-seed" +
                                 std::to_string(options.seed);
        std::ostringstream spans_json, profile_json;
        traced.spans.write_json(spans_json);
        recorder.profiler()->write_profile_json(profile_json);
        if (!write_file(stem + ".spans.json", spans_json.str()) ||
            !write_file(stem + ".profile.json", profile_json.str())) {
            violations.push_back("could not write trace files under " + options.out_dir);
        }
    }
    return print_result(violations.empty(), traced.outcomes, m, violations);
}

}  // namespace perfbench
