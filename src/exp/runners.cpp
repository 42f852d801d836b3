#include "exp/runners.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "attacks/attacks.hpp"
#include "protocols/clusters.hpp"
#include "workload/load.hpp"

namespace rbft::exp {
namespace {

/// Calibrated bottleneck cost coefficients: per-request service seconds =
/// a + b * payload.  Fitted to probe measurements at 8 B and 4 kB (see
/// EXPERIMENTS.md, "calibration").
struct CapacityCoeffs {
    double a;  // fixed cost (s)
    double b;  // per payload byte (s)
    bool exec_shares_core;  // single-event-loop protocols add exec serially
};

CapacityCoeffs coeffs(Protocol protocol) {
    switch (protocol) {
        case Protocol::kRbftTcp:
        case Protocol::kRbftUdp:
            return {29.5e-6, 50.0e-9, false};  // verification core bound
        case Protocol::kAardvark:
            return {38.0e-6, 113.0e-9, true};
        case Protocol::kSpinning:
            return {21.0e-6, 64.0e-9, true};
        case Protocol::kPrime:
            return {64.0e-6, 80.0e-9, true};
    }
    return {30e-6, 50e-9, true};
}

Duration dynamic_stage() { return milliseconds(200.0); }

// Serializes exports so concurrent runs on the worker pool never interleave
// writes to the shared metrics.json/trace.json pair.
std::mutex export_mutex;
std::atomic<bool> export_failed_flag{false};

}  // namespace

std::shared_ptr<obs::Recorder> make_run_recorder(std::shared_ptr<obs::Recorder> supplied) {
    auto recorder = supplied ? std::move(supplied) : std::make_shared<obs::Recorder>();
    if (obs::export_dir_from_env()) {
        if (!recorder->tracing()) recorder->enable_trace();
        recorder->enable_profiling();
    }
    return recorder;
}

void bridge_crypto_stats(obs::Recorder& recorder, const crypto::KeyStore& keys) {
    obs::prof::Profiler* profiler = recorder.profiler();
    if (!profiler) return;
    const crypto::CryptoStats& stats = keys.stats();
    profiler->counter("crypto.digests_computed")->add(stats.digests_computed);
    profiler->counter("crypto.macs_computed")->add(stats.macs_computed);
    profiler->counter("crypto.sigs_computed")->add(stats.sigs_computed);
    profiler->counter("crypto.keys_derived")->add(stats.keys_derived);
    profiler->counter("crypto.key_cache_hits")->add(stats.key_cache_hits);
    profiler->counter("crypto.sha_blocks")->add(stats.sha_blocks);
}

void maybe_export(const obs::Recorder& recorder) {
    const char* dir = obs::export_dir_from_env();
    if (!dir) return;
    const std::lock_guard<std::mutex> lock(export_mutex);
    if (!recorder.export_to_dir(dir) && !export_failed_flag.exchange(true)) {
        std::fprintf(stderr, "cannot export observability data to %s\n", dir);
    }
}

bool export_failed() { return export_failed_flag.load(); }

double service_time(Protocol protocol, std::size_t payload_bytes, Duration exec_cost) {
    const CapacityCoeffs c = coeffs(protocol);
    const double base = c.a + c.b * static_cast<double>(payload_bytes);
    double per_request = c.exec_shares_core
                             ? base + exec_cost.seconds()
                             // RBFT executes on a dedicated core: whichever
                             // stage is slower binds.
                             : std::max(base, exec_cost.seconds());
    if (protocol == Protocol::kPrime) {
        // Prime's ordering rate is additionally capped by the coverage
        // budget of one ORDER message per ordering period (flow control).
        const protocols::prime::PrimeConfig defaults;
        const double order_cap_s = defaults.order_period.seconds() /
                                   static_cast<double>(defaults.max_order_coverage);
        per_request = std::max(per_request, order_cap_s);
    }
    return per_request;
}

double capacity(Protocol protocol, std::size_t payload_bytes, Duration exec_cost) {
    return 1.0 / service_time(protocol, payload_bytes, exec_cost);
}

double saturated_rate(Protocol protocol, std::size_t payload_bytes, Duration exec_cost) {
    return 0.90 * capacity(protocol, payload_bytes, exec_cost);
}

workload::LoadSpec dynamic_spec(double saturation_rate, Duration stage) {
    // Per-client rate chosen so the 50-client spike offers ~2x the
    // saturation rate (a genuine spike) while the 1..10-client ramp stays
    // well below capacity — the regime the paper's dynamic load probes.
    return workload::LoadSpec::dynamic(saturation_rate * 2.0 / 50.0, stage);
}

// ---------------------------------------------------------------------------

ScenarioOutput run_rbft(const RbftScenario& scenario) {
    const Protocol protocol = scenario.use_udp ? Protocol::kRbftUdp : Protocol::kRbftTcp;
    core::ClusterConfig cfg;
    cfg.f = scenario.f;
    cfg.seed = scenario.seed;
    cfg.use_udp = scenario.use_udp;
    cfg.pooled_messages = scenario.pooled_messages;
    cfg.order_full_requests = scenario.order_full_requests;
    cfg.monitoring.delta = scenario.delta;
    cfg.instances_override = scenario.instances_override;

    auto recorder = make_run_recorder(scenario.recorder);
    cfg.recorder = recorder.get();

    core::Cluster cluster(cfg);

    std::unique_ptr<attacks::WorstAttack1> attack1;
    std::unique_ptr<attacks::WorstAttack2> attack2;
    workload::ClientBehavior behavior;
    behavior.payload_bytes = scenario.payload_bytes;
    behavior.exec_cost = scenario.exec_cost;
    behavior.message_pool = cluster.message_pool();
    if (scenario.attack == RbftScenario::Attack::kWorst1) {
        attack1 = std::make_unique<attacks::WorstAttack1>(cluster);
        attack1->install();
        behavior.corrupt_mac_mask = attack1->client_mac_mask();
    } else if (scenario.attack == RbftScenario::Attack::kWorst2) {
        attack2 = std::make_unique<attacks::WorstAttack2>(cluster);
        attack2->install();
    }

    cluster.start();
    if (attack2) attack2->start();

    const double rate = scenario.rate > 0.0
                            ? scenario.rate
                            : saturated_rate(protocol, scenario.payload_bytes, scenario.exec_cost);
    const std::uint32_t client_count =
        scenario.load == LoadShape::kDynamic ? 50 : scenario.clients;
    auto clients = make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                cfg.n(), cfg.f, client_count, behavior);
    for (auto& c : clients) c->set_recorder(recorder.get());

    TimePoint window_from{}, window_to{};
    workload::LoadSpec spec;
    if (scenario.load == LoadShape::kStatic) {
        const Duration total = scenario.warmup + scenario.measure;
        spec = workload::LoadSpec::constant(rate, total, client_count);
        window_from = TimePoint{} + scenario.warmup;
        window_to = TimePoint{} + total;
    } else {
        spec = dynamic_spec(rate, dynamic_stage());
        window_from = TimePoint{};
        window_to = TimePoint{} + spec.total_duration();
    }
    workload::LoadGenerator load(cluster.simulator(), client_ptrs(clients), spec,
                                 Rng(scenario.seed ^ 0x9e3779b9));
    load.start();
    cluster.simulator().run_until(window_to + milliseconds(300.0));

    ScenarioOutput out;
    out.recorder = recorder;
    out.result = measure_window(recorder->metrics(), window_from, window_to);
    for (const auto& c : clients) out.requests_outstanding += c->outstanding();
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        core::Node& node = cluster.node(i);
        out.node_state.push_back(node.state_sizes());
        if (node.faulty()) continue;
        out.instance_changes += recorder->metrics().counter_value("rbft.instance_changes_done", i);

        double master_sum = 0.0, backup_sum = 0.0;
        std::uint64_t master_n = 0, backup_n = 0;
        for (std::uint32_t inst = 0; inst < node.instance_count(); ++inst) {
            for (const auto& [t, kreq] :
                 recorder->metrics().find_series("monitor.kreq_s", i, inst)->points) {
                if (t < window_from.seconds() || t >= window_to.seconds()) continue;
                if (inst == 0) {
                    master_sum += kreq;
                    ++master_n;
                } else {
                    backup_sum += kreq;
                    ++backup_n;
                }
            }
        }
        if (master_n == 0 && backup_n == 0) continue;  // monitor silent (faulty node)
        out.node_throughputs.emplace_back(master_n ? master_sum / master_n : 0.0,
                                          backup_n ? backup_sum / backup_n : 0.0);
    }
    bridge_crypto_stats(*recorder, cluster.keys());
    maybe_export(*recorder);
    return out;
}

// ---------------------------------------------------------------------------

namespace {

template <typename Cluster, typename AttackT>
ScenarioOutput drive_baseline(Cluster& cluster, AttackT* attack,
                              const BaselineScenario& scenario, Protocol protocol,
                              bool round_robin_clients,
                              const std::shared_ptr<obs::Recorder>& recorder) {
    cluster.start();
    if (attack) attack->start();

    workload::ClientBehavior behavior;
    behavior.payload_bytes = scenario.payload_bytes;
    behavior.exec_cost = scenario.exec_cost;
    behavior.message_pool = cluster.message_pool();
    behavior.round_robin_single = round_robin_clients;

    const double rate =
        scenario.rate > 0.0
            ? scenario.rate
            : saturated_rate(protocol, scenario.payload_bytes, scenario.exec_cost);
    const std::uint32_t client_count = scenario.load == LoadShape::kDynamic ? 50 : scenario.clients;
    auto clients = make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                cluster.n(), cluster.f(), client_count, behavior);
    // The Prime attack's heavy client below is deliberately left detached:
    // attack traffic must not count toward measured throughput.
    for (auto& c : clients) c->set_recorder(recorder.get());

    TimePoint window_from{}, window_to{};
    workload::LoadSpec spec;
    if (scenario.load == LoadShape::kStatic) {
        const Duration total = scenario.warmup + scenario.measure;
        spec = workload::LoadSpec::constant(rate, total, client_count);
        window_from = TimePoint{} + scenario.warmup;
        window_to = TimePoint{} + total;
    } else {
        spec = dynamic_spec(rate, dynamic_stage());
        window_from = TimePoint{};
        window_to = TimePoint{} + spec.total_duration();
    }
    workload::LoadGenerator load(cluster.simulator(), client_ptrs(clients), spec,
                                 Rng(scenario.seed ^ 0x9e3779b9));
    load.start();

    // Prime attack: one faulty client streams heavy requests throughout.
    std::unique_ptr<workload::ClientEndpoint> heavy_client;
    std::unique_ptr<workload::LoadGenerator> heavy_load;
    if (scenario.attack && protocol == Protocol::kPrime) {
        // The faulty client's heavy-request execution cost and rate.
        constexpr Duration kHeavyExec = milliseconds(1.0);
        constexpr double kHeavyRate = 700.0;
        workload::ClientBehavior heavy;
        heavy.payload_bytes = scenario.payload_bytes;
        heavy.exec_cost = kHeavyExec;
        heavy.message_pool = cluster.message_pool();
        heavy.round_robin_single = true;
        heavy_client = std::make_unique<workload::ClientEndpoint>(
            ClientId{90000}, cluster.simulator(), cluster.network(), cluster.keys(),
            cluster.n(), cluster.f(), heavy);
        heavy_load = std::make_unique<workload::LoadGenerator>(
            cluster.simulator(), std::vector<workload::ClientEndpoint*>{heavy_client.get()},
            workload::LoadSpec::constant(kHeavyRate, window_to - TimePoint{}, 1),
            Rng(scenario.seed ^ 0xabcdef));
        heavy_load->start();
    }

    cluster.simulator().run_until(window_to + milliseconds(300.0));

    ScenarioOutput out;
    out.recorder = recorder;
    out.result = measure_window(recorder->metrics(), window_from, window_to);
    bridge_crypto_stats(*recorder, cluster.keys());
    return out;
}

}  // namespace

ScenarioOutput run_baseline(const BaselineScenario& scenario) {
    switch (scenario.protocol) {
        case Protocol::kAardvark: {
            auto recorder = make_run_recorder(scenario.recorder);
            protocols::AardvarkConfig cfg;
            cfg.base.recorder = recorder.get();
            protocols::AardvarkCluster cluster(
                1, scenario.seed, cfg, protocols::default_channel_aardvark(), {},
                [] { return std::make_unique<core::NullService>(); },
                scenario.pooled_messages);
            std::unique_ptr<attacks::AardvarkAttack> attack;
            if (scenario.attack) {
                // Static load: the malicious node takes the primary role
                // after honest views built real expectations.  Dynamic
                // load: worst case is the malicious primary in power when
                // the spike arrives (the initial primary).
                const NodeId malicious =
                    scenario.load == LoadShape::kStatic ? NodeId{1} : NodeId{0};
                attack = std::make_unique<attacks::AardvarkAttack>(cluster, malicious);
            }
            ScenarioOutput out = drive_baseline(cluster, attack.get(), scenario,
                                                Protocol::kAardvark, false, recorder);
            out.view_changes = recorder->metrics().counter_sum("baseline.view_changes_started");
            maybe_export(*recorder);
            return out;
        }
        case Protocol::kSpinning: {
            auto recorder = make_run_recorder(scenario.recorder);
            protocols::SpinningConfig cfg;
            cfg.base.recorder = recorder.get();
            protocols::SpinningCluster cluster(
                1, scenario.seed, cfg, protocols::default_channel_spinning(), {},
                [] { return std::make_unique<core::NullService>(); },
                scenario.pooled_messages);
            std::unique_ptr<attacks::SpinningAttack> attack;
            if (scenario.attack) {
                attack = std::make_unique<attacks::SpinningAttack>(cluster, NodeId{3});
            }
            ScenarioOutput out = drive_baseline(cluster, attack.get(), scenario,
                                                Protocol::kSpinning, false, recorder);
            out.view_changes = recorder->metrics().counter_sum("spinning.timeouts");
            maybe_export(*recorder);
            return out;
        }
        case Protocol::kPrime: {
            auto recorder = make_run_recorder(scenario.recorder);
            protocols::prime::PrimeConfig cfg;
            cfg.recorder = recorder.get();
            protocols::PrimeCluster cluster(
                1, scenario.seed, cfg, protocols::default_channel_prime(), {},
                [] { return std::make_unique<core::NullService>(); },
                scenario.pooled_messages);
            std::unique_ptr<attacks::PrimeAttack> attack;
            if (scenario.attack) {
                // The initial primary (rotation round 0) is the malicious one.
                attack = std::make_unique<attacks::PrimeAttack>(cluster, NodeId{0});
            }
            ScenarioOutput out =
                drive_baseline(cluster, attack.get(), scenario, Protocol::kPrime, true, recorder);
            out.view_changes = recorder->metrics().counter_sum("prime.rotations");
            maybe_export(*recorder);
            return out;
        }
        case Protocol::kRbftTcp:
        case Protocol::kRbftUdp:
            return {};  // RBFT scenarios go through run_rbft()
    }
    return {};
}

}  // namespace rbft::exp
