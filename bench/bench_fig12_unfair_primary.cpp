// Figure 12: ordering latencies for the requests of two clients on the
// master protocol instance with an unfair primary (f = 1, 4 kB requests,
// Λ = 1.5 ms).  A correct node's latency per request is read off its trace
// events, from dispatch to execution: the master instance orders the
// request in between, and execution adds a few microseconds.
//
// Timeline (paper §VI-C3): the malicious primary is fair for the first 500
// requests (~0.8 ms), then delays the attacked client's requests so its
// average latency rises (~1.3 ms) for 500 more, then delays harder; the
// first request beyond Λ = 1.5 ms makes the nodes vote a protocol instance
// change, the primary is replaced, and both clients see fair latency again.
#include <map>
#include <memory>
#include <utility>

#include "attacks/attacks.hpp"
#include "bench_util.hpp"
#include "workload/load.hpp"

namespace rbft::bench {
namespace {

double stage_mean(const Series& s, std::size_t from, std::size_t to) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = from; i < to && i < s.points.size(); ++i, ++n) {
        sum += s.points[i].second;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

exp::RunOutput run_fig12() {
    core::ClusterConfig cfg;
    cfg.batch_delay = milliseconds(0.3);  // low-load setup: small batches
    cfg.monitoring.lambda = milliseconds(1.5);  // Λ
    cfg.monitoring.omega = seconds(10.0);       // Ω set high on purpose

    // Node 1's latency per request and client, in execution order.
    Series victim, other;
    std::map<std::pair<std::uint64_t, std::uint64_t>, TimePoint> dispatched;

    // Declared before the cluster: the recorder must outlive it.
    const std::shared_ptr<obs::Recorder> recorder = exp::make_run_recorder();
    recorder->set_listener([&](const obs::TraceEvent& e) {
        if (e.node != 1) return;
        const auto key = std::make_pair(e.a, e.b);  // (client, rid)
        if (e.type == obs::EventType::kRequestDispatched) {
            dispatched.emplace(key, e.at);
            return;
        }
        if (e.type != obs::EventType::kRequestExecuted) return;
        const auto it = dispatched.find(key);
        if (it == dispatched.end()) return;
        Series& s = e.a == 0 ? victim : other;
        s.add(static_cast<double>(s.size() + 1), (e.at - it->second).millis());
        dispatched.erase(it);
    });
    cfg.recorder = recorder.get();
    core::Cluster cluster(cfg);
    attacks::UnfairPrimary attack(cluster);
    attack.install();
    cluster.start();

    workload::ClientBehavior behavior;
    behavior.payload_bytes = 4096;
    auto clients = exp::make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                     cfg.n(), cfg.f, 2, behavior);
    workload::LoadGenerator load(cluster.simulator(), exp::client_ptrs(clients),
                                 workload::LoadSpec::constant(1000.0, seconds(3.2), 2), Rng(7));
    load.start();
    cluster.simulator().run_for(seconds(3.5));
    recorder->set_listener({});
    exp::bridge_crypto_stats(*recorder, cluster.keys());
    exp::maybe_export(*recorder);
    const auto instance_changes = recorder->metrics().counter_sum("rbft.instance_changes_done");

    double peak = 0.0;
    std::size_t peak_at = 0;
    for (std::size_t i = 0; i < victim.points.size(); ++i) {
        if (victim.points[i].second > peak) {
            peak = victim.points[i].second;
            peak_at = i;
        }
    }

    exp::RunOutput out;
    out.extra = {{"stage1_mean_ms", stage_mean(victim, 0, 500)},
                 {"stage2_mean_ms", stage_mean(victim, 500, 1000)},
                 {"peak_latency_ms", peak},
                 {"peak_at_request", static_cast<double>(peak_at)},
                 {"after_change_mean_ms", stage_mean(victim, peak_at + 50, victim.points.size())},
                 {"other_client_mean_ms", stage_mean(other, 0, other.points.size())},
                 {"instance_changes", static_cast<double>(instance_changes)}};
    out.notes.push_back("# Fig12 series (request#, latency ms), every 25th point:");
    for (std::size_t i = 0; i < victim.points.size(); i += 25) {
        char line[64];
        std::snprintf(line, sizeof(line), "  attacked %5.0f %.3f", victim.points[i].first,
                      victim.points[i].second);
        out.notes.emplace_back(line);
    }
    return out;
}

void register_points(Harness& harness) {
    exp::CustomRun custom;
    custom.seed = core::ClusterConfig{}.seed;
    custom.sim_seconds = 3.5;
    custom.run = run_fig12;

    harness.add_point(
        "Fig12/unfair-primary", {exp::RunSpec{"unfair-primary", custom}},
        [](const std::vector<exp::RunOutput>& outs) {
            const exp::RunOutput& out = outs[0];
            auto value = [&](const char* key) {
                for (const auto& [name, v] : out.extra) {
                    if (name == key) return v;
                }
                return 0.0;
            };
            PointOutcome outcome;
            outcome.rows = {
                {"Fig12 attacked client  req 1-500", {{"mean_ms", value("stage1_mean_ms")}}},
                {"Fig12 attacked client  req 500-1000", {{"mean_ms", value("stage2_mean_ms")}}},
                {"Fig12 attacked client  peak",
                 {{"latency_ms", value("peak_latency_ms")},
                  {"at_request", value("peak_at_request")}}},
                {"Fig12 attacked client  after change",
                 {{"mean_ms", value("after_change_mean_ms")}}},
                {"Fig12 other client     overall", {{"mean_ms", value("other_client_mean_ms")}}},
                {"Fig12 instance changes", {{"count", value("instance_changes")}}}};
            outcome.counters = {{"peak_latency_ms", value("peak_latency_ms")},
                                {"instance_changes", value("instance_changes")},
                                {"baseline_ms", value("stage1_mean_ms")}};
            outcome.notes = out.notes;
            return outcome;
        });
}

}  // namespace
}  // namespace rbft::bench

RBFT_BENCH_MAIN("fig12_unfair_primary",
                "Figure 12: per-request ordering latency with an unfair primary")
