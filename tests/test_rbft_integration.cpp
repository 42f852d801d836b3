// End-to-end integration tests: full RBFT clusters ordering and executing
// real client requests through the simulated network.
#include <gtest/gtest.h>

#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::core {
namespace {

using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

ClusterConfig small_config(std::uint32_t f = 1) {
    ClusterConfig cfg;
    cfg.f = f;
    cfg.seed = 7;
    return cfg;
}

/// Node `node`'s count of `name` in the cluster's metrics registry.
std::uint64_t count(Cluster& cluster, std::string_view name, std::uint32_t node) {
    return cluster.recorder().metrics().counter_value(name, node);
}

TEST(RbftIntegration, SingleRequestCompletes) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
}

TEST(RbftIntegration, ManyRequestsAllComplete) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(1.0), 1), Rng(3));
    load.start();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), client.sent());
    EXPECT_GT(client.sent(), 1500u);
}

TEST(RbftIntegration, AllNodesExecuteEveryRequest) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    for (int i = 0; i < 50; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        EXPECT_EQ(count(cluster, "rbft.requests_executed", i), 50u) << "node " << i;
    }
}

TEST(RbftIntegration, BothInstancesOrderEveryRequest) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    for (int i = 0; i < 100; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        for (std::uint32_t inst = 0; inst < cluster.config().f + 1; ++inst) {
            EXPECT_EQ(cluster.node(i).engine(InstanceId{inst}).total_ordered(), 100u)
                << "node " << i << " instance " << inst;
        }
    }
}

TEST(RbftIntegration, MultipleClientsInterleave) {
    Cluster cluster(small_config());
    cluster.start();
    std::vector<std::unique_ptr<ClientEndpoint>> clients;
    for (std::uint32_t c = 0; c < 5; ++c) {
        clients.push_back(std::make_unique<ClientEndpoint>(
            ClientId{c}, cluster.simulator(), cluster.network(), cluster.keys(),
            cluster.config().n(), cluster.config().f));
    }
    for (int round = 0; round < 20; ++round) {
        for (auto& c : clients) c->send_one();
    }
    cluster.simulator().run_for(seconds(2.0));
    for (auto& c : clients) EXPECT_EQ(c->completed(), 20u);
}

TEST(RbftIntegration, F2ClusterWorks) {
    Cluster cluster(small_config(2));
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    for (int i = 0; i < 30; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 30u);
    // f+1 = 3 instances all order everything.
    for (std::uint32_t inst = 0; inst < 3; ++inst) {
        EXPECT_EQ(cluster.node(0).engine(InstanceId{inst}).total_ordered(), 30u);
    }
}

TEST(RbftIntegration, NoInstanceChangeWhenFaultFree) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(5000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.0));
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        EXPECT_EQ(count(cluster, "rbft.instance_changes_done", i), 0u) << "node " << i;
        EXPECT_EQ(cluster.node(i).cpi(), 0u) << "node " << i;
    }
}

TEST(RbftIntegration, DuplicateRequestGetsReplyResent) {
    Cluster cluster(small_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    ASSERT_EQ(client.completed(), 1u);
    // A fresh endpoint with the same client id replays rid 1.
    // (The original endpoint has already consumed the reply votes.)
    ClientEndpoint replayer(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                            cluster.config().n(), cluster.config().f);
    replayer.send_one();  // same (client 0, rid 1)
    cluster.simulator().run_for(seconds(1.0));
    std::uint64_t resent = 0;
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        resent += count(cluster, "rbft.replies_resent", i);
        EXPECT_EQ(count(cluster, "rbft.requests_executed", i), 1u) << "node " << i;
    }
    EXPECT_GE(resent, cluster.config().f + 1);
    EXPECT_EQ(replayer.completed(), 1u);
}

TEST(RbftIntegration, UdpClusterCompletesRequests) {
    auto cfg = small_config();
    cfg.use_udp = true;
    Cluster cluster(cfg);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cluster.config().n(), cluster.config().f);
    for (int i = 0; i < 50; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 50u);
}

TEST(RbftIntegration, CorruptSignatureBlacklistsClient) {
    Cluster cluster(small_config());
    cluster.start();
    workload::ClientBehavior bad;
    bad.corrupt_sig = true;
    ClientEndpoint evil(ClientId{9}, cluster.simulator(), cluster.network(), cluster.keys(),
                        cluster.config().n(), cluster.config().f, bad);
    evil.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(evil.completed(), 0u);
    // Later (even valid-looking) requests are ignored: client blacklisted.
    evil.behavior().corrupt_sig = false;
    evil.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(evil.completed(), 0u);
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        EXPECT_GE(count(cluster, "rbft.requests_invalid_sig", i), 1u);
    }
}

}  // namespace
}  // namespace rbft::core
