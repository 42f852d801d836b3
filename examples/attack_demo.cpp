// Attack demo: watch RBFT's monitoring catch a misbehaving master primary.
//
// Phase 1: fault-free cluster under load — master and backup instances
//          track each other; no instance change.
// Phase 2: the master primary turns "smartly malicious" but overplays its
//          hand, throttling ordering well below the Δ threshold — the nodes
//          vote a protocol instance change, every primary moves one node
//          over, and throughput recovers.
//
//   $ ./build/examples/attack_demo
#include <cstdio>

#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

using namespace rbft;

namespace {

void report(core::Cluster& cluster, workload::ClientEndpoint& client, TimePoint from,
            TimePoint to, const char* phase) {
    const std::uint64_t completed = client.completed_in(from, to);
    const double window = (to - from).seconds();
    std::printf("%-28s throughput=%7.2f kreq/s  master primary on node %u  cpi=%llu\n", phase,
                completed / window / 1000.0, raw(cluster.master_primary_node()),
                static_cast<unsigned long long>(cluster.node(1).cpi()));
}

}  // namespace

int main() {
    core::ClusterConfig config;
    config.seed = 99;
    core::Cluster cluster(config);
    cluster.start();

    workload::ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                                    cluster.keys(), config.n(), config.f);
    workload::LoadGenerator load(cluster.simulator(), {&client},
                                 workload::LoadSpec::constant(10000.0, seconds(6.0), 1),
                                 Rng(5));
    load.start();

    // Phase 1: fault-free second.
    cluster.simulator().run_for(seconds(2.0));
    report(cluster, client, TimePoint{} + seconds(1.0), TimePoint{} + seconds(2.0),
           "phase 1 (fault-free):");

    // Phase 2: the master primary (node 0 initially) throttles ordering.
    std::printf("\n>>> master primary on node %u starts delaying requests...\n\n",
                raw(cluster.master_primary_node()));
    bft::PrimaryBehavior malicious;
    malicious.inter_batch_gap = milliseconds(20.0);
    malicious.batch_cap = 8;  // ~400 req/s, far below the backups' pace
    cluster.node(raw(cluster.master_primary_node()))
        .engine(core::Node::master_instance())
        .set_primary_behavior(malicious);

    cluster.simulator().run_for(seconds(2.0));
    report(cluster, client, TimePoint{} + seconds(2.0), TimePoint{} + seconds(4.0),
           "phase 2 (under attack):");

    // Phase 3: the instance change has evicted the malicious primary.
    cluster.simulator().run_for(seconds(2.5));
    report(cluster, client, TimePoint{} + seconds(4.5), TimePoint{} + seconds(6.0),
           "phase 3 (recovered):");

    std::printf("\ninstance changes performed per node:");
    const obs::MetricsRegistry& metrics = cluster.recorder().metrics();
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        std::printf(" %llu", static_cast<unsigned long long>(
                                 metrics.counter_value("rbft.instance_changes_done", i)));
    }
    std::printf("\nall client requests eventually served: %s (%llu/%llu)\n",
                client.completed() == client.sent() ? "yes" : "NO",
                static_cast<unsigned long long>(client.completed()),
                static_cast<unsigned long long>(client.sent()));
    return 0;
}
