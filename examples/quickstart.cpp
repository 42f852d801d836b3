// Quickstart: bring up a simulated RBFT deployment (f = 1, four nodes, two
// protocol instances), send requests from a client, and inspect what the
// cluster did.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "rbft/cluster.hpp"
#include "workload/client.hpp"

using namespace rbft;

int main() {
    // 1. Configure the cluster: f = 1 tolerated fault => N = 3f+1 = 4 nodes,
    //    each running f+1 = 2 protocol instances (one master, one backup).
    core::ClusterConfig config;
    config.f = 1;
    config.seed = 2024;

    //    Logging is instance-confined: the run owns its Logger and hands the
    //    cluster a pointer (null = silent), so concurrent runs never share
    //    logging state.
    Logger logger;
    logger.set_level(LogLevel::kInfo);
    config.logger = &logger;

    core::Cluster cluster(config);
    cluster.start();  // starts each node's monitoring module

    // 2. Attach a client.  Requests are signed and MAC-authenticated; the
    //    client completes a request when f+1 matching replies arrive.
    workload::ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                                    cluster.keys(), config.n(), config.f);

    // 3. Send a handful of requests (open loop: no waiting between sends).
    for (int i = 0; i < 100; ++i) client.send_one();

    // 4. Run the simulated world for one second.
    cluster.simulator().run_for(seconds(1.0));

    // 5. Inspect.
    std::printf("sent:      %llu\n", static_cast<unsigned long long>(client.sent()));
    std::printf("completed: %llu\n", static_cast<unsigned long long>(client.completed()));
    std::printf("mean latency: %.2f ms\n", client.latencies().summary().mean() * 1e3);
    std::printf("p99  latency: %.2f ms\n", client.latencies().quantile(0.99) * 1e3);

    //    Every protocol event is counted once, in the cluster's metrics
    //    registry, keyed by (metric, node, instance).
    const obs::MetricsRegistry& metrics = cluster.recorder().metrics();
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        core::Node& node = cluster.node(i);
        std::printf(
            "node %u: verified=%llu executed=%llu ordered(master)=%llu ordered(backup)=%llu\n",
            i, static_cast<unsigned long long>(metrics.counter_value("rbft.requests_verified", i)),
            static_cast<unsigned long long>(metrics.counter_value("rbft.requests_executed", i)),
            static_cast<unsigned long long>(node.engine(InstanceId{0}).total_ordered()),
            static_cast<unsigned long long>(node.engine(InstanceId{1}).total_ordered()));
    }
    std::printf("master primary runs on node %u\n", raw(cluster.master_primary_node()));
    return 0;
}
