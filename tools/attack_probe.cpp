#include <cstdio>
#include <cstring>
#include "attacks/attacks.hpp"
#include "exp/harness.hpp"
using namespace rbft;

double run_rbft(bool attack1, bool attack2, double rate, size_t payload) {
    core::ClusterConfig cfg;
    core::Cluster cluster(cfg);
    std::unique_ptr<attacks::WorstAttack1> a1;
    std::unique_ptr<attacks::WorstAttack2> a2;
    workload::ClientBehavior behavior;
    behavior.payload_bytes = payload;
    if (attack1) {
        a1 = std::make_unique<attacks::WorstAttack1>(cluster);
        a1->install();
        behavior.corrupt_mac_mask = a1->client_mac_mask();
    }
    if (attack2) {
        a2 = std::make_unique<attacks::WorstAttack2>(cluster);
        a2->install();
    }
    cluster.start();
    if (a2) a2->start();
    auto clients = exp::make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                     cfg.n(), cfg.f, 20, behavior);
    workload::LoadGenerator load(cluster.simulator(), exp::client_ptrs(clients),
                                 workload::LoadSpec::constant(rate, seconds(3.0), 20), Rng(1));
    load.start();
    cluster.simulator().run_for(seconds(3.5));
    auto r = exp::measure_window(clients, TimePoint{1'000'000'000}, TimePoint{3'000'000'000});
    // report instance changes
    const auto ic = static_cast<unsigned>(
        cluster.recorder().metrics().counter_sum("rbft.instance_changes_done"));
    printf("  attack1=%d attack2=%d rate=%.0f payload=%zu -> %.3f kreq/s mean=%.2fms ic_total=%u\n",
           attack1, attack2, rate, payload, r.kreq_s, r.mean_latency_ms, ic);
    return r.kreq_s;
}

int main() {
    for (size_t payload : {size_t(8), size_t(4096)}) {
        double rate = payload == 8 ? 30000 : 4000;
        double ff = run_rbft(false, false, rate, payload);
        double a1 = run_rbft(true, false, rate, payload);
        double a2 = run_rbft(false, true, rate, payload);
        printf("payload=%zu: relative a1=%.1f%% a2=%.1f%%\n\n", payload, 100*a1/ff, 100*a2/ff);
    }
}
