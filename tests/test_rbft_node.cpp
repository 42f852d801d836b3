// Unit tests for the RBFT node: propagation/clearance, monitoring (Δ, Λ),
// the instance-change protocol, flood defense, and the dispatch pipeline —
// exercised on full clusters with targeted misbehaviours.
#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::core {
namespace {

using workload::ClientBehavior;
using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

ClusterConfig quick_config() {
    ClusterConfig cfg;
    cfg.seed = 11;
    return cfg;
}

/// Node `node`'s count of `name` in the cluster's metrics registry.
std::uint64_t count(Cluster& cluster, std::string_view name, std::uint32_t node) {
    return cluster.recorder().metrics().counter_value(name, node);
}

// ---------------------------------------------------------------------------
// Propagation and clearance (§IV-B step 2).

TEST(RbftNode, RequestSentToSingleNodeStillOrdered) {
    // The PROPAGATE phase must disseminate a request sent to one correct
    // node so every instance orders it.
    Cluster cluster(quick_config());
    cluster.start();
    ClientBehavior behavior;
    behavior.targets = {NodeId{2}};
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, behavior);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).engine(InstanceId{0}).total_ordered(), 1u) << i;
    }
}

TEST(RbftNode, RequestUnverifiableAtOneNodeStillOrdered) {
    // Worst-attack-1's client lever: the master primary's node never sees a
    // valid authenticator entry but learns the request via PROPAGATE.
    Cluster cluster(quick_config());
    cluster.start();
    ClientBehavior behavior;
    behavior.corrupt_mac_mask = 0b0001;  // node 0 = master primary's node
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, behavior);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    EXPECT_GE(count(cluster, "rbft.requests_invalid_mac", 0), 1u);
    EXPECT_EQ(cluster.node(0).engine(InstanceId{0}).total_ordered(), 1u);
}

TEST(RbftNode, PropagatesCountedTowardClearance) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GE(count(cluster, "rbft.propagates_received", i), 3u) << i;
    }
}

// ---------------------------------------------------------------------------
// Monitoring: Δ throughput ratio (§IV-C) and instance change (§IV-D).

TEST(RbftNode, SlowMasterPrimaryTriggersInstanceChange) {
    Cluster cluster(quick_config());
    cluster.start();
    // Master primary (node 0, instance 0) delays ordering far below Δ.
    bft::PrimaryBehavior slow;
    slow.inter_batch_gap = milliseconds(50.0);
    slow.batch_cap = 1;
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(slow);

    auto clients = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {clients.get()},
                       LoadSpec::constant(3000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.5));

    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GE(cluster.node(i).cpi(), 1u) << "node " << i;
    }
    // After the change, the master primary moved off node 0.
    EXPECT_NE(cluster.master_primary_node(), NodeId{0});
    // And the system recovered: requests complete.
    EXPECT_EQ(clients->completed(), clients->sent());
}

TEST(RbftNode, SilentMasterPrimaryTriggersInstanceChange) {
    Cluster cluster(quick_config());
    cluster.start();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.0));
    EXPECT_GE(cluster.node(1).cpi(), 1u);
    EXPECT_EQ(client.completed(), client.sent());
}

TEST(RbftNode, InstanceChangeMovesEveryPrimary) {
    Cluster cluster(quick_config());
    cluster.start();
    const NodeId master_before = cluster.node(0).engine(InstanceId{0}).primary();
    const NodeId backup_before = cluster.node(0).engine(InstanceId{1}).primary();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(raw(master_before)).engine(InstanceId{0}).set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.0));

    EXPECT_NE(cluster.node(1).engine(InstanceId{0}).primary(), master_before);
    EXPECT_NE(cluster.node(1).engine(InstanceId{1}).primary(), backup_before);
    // The placement invariant holds: distinct primaries per instance.
    EXPECT_NE(cluster.node(1).engine(InstanceId{0}).primary(),
              cluster.node(1).engine(InstanceId{1}).primary());
}

TEST(RbftNode, LambdaLatencyBoundTriggersInstanceChange) {
    ClusterConfig cfg = quick_config();
    cfg.batch_delay = milliseconds(0.3);
    cfg.monitoring.lambda = milliseconds(2.0);  // Λ
    Cluster cluster(cfg);
    cluster.start();
    // The master primary delays every request by more than Λ.
    bft::PrimaryBehavior unfair;
    unfair.per_request_delay = [](const bft::RequestRef&) { return milliseconds(5.0); };
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(unfair);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(500.0, seconds(1.5), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_GE(cluster.node(1).cpi(), 1u);
}

TEST(RbftNode, NoInstanceChangeOnIdleSystem) {
    Cluster cluster(quick_config());
    cluster.start();
    cluster.simulator().run_for(seconds(3.0));  // monitoring ticks, no load
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).cpi(), 0u);
        EXPECT_EQ(count(cluster, "rbft.instance_changes_voted", i), 0u);
    }
}

TEST(RbftNode, StaleInstanceChangeVotesDiscarded) {
    Cluster cluster(quick_config());
    cluster.start();
    // Forge a stale INSTANCE_CHANGE (cpi behind the node's counter cannot
    // exist yet, so send one for cpi 0 after... simplest: send duplicate
    // votes from one node and check no change happens with < 2f+1 voters.
    auto ic = std::make_shared<InstanceChangeMsg>();
    ic->cpi = 0;
    ic->sender = NodeId{3};
    for (int i = 0; i < 5; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}), ic);
    }
    cluster.simulator().run_for(seconds(1.0));
    // One vote (repeated) is not 2f+1: no instance change.
    EXPECT_EQ(cluster.node(0).cpi(), 0u);
}

TEST(RbftNode, MonitorSeriesRecordsBothInstances) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(5000.0, seconds(1.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(1.5));
    const obs::MetricsRegistry& metrics = cluster.recorder().metrics();
    const Series* master = metrics.find_series("monitor.kreq_s", 0, 0);
    const Series* backup = metrics.find_series("monitor.kreq_s", 0, 1);
    ASSERT_NE(master, nullptr);
    ASSERT_NE(backup, nullptr);
    EXPECT_GE(master->size(), 10u);
    EXPECT_NEAR(master->mean_y(), backup->mean_y(), 0.5);  // kreq/s, near-equal
}

// ---------------------------------------------------------------------------
// Flood defense (§V).

TEST(RbftNode, FloodClosesSourceNic) {
    Cluster cluster(quick_config());
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(net::kMaxFloodBytes,
                                                 net::FloodMsg::Target::kPropagation);
    for (std::uint64_t i = 0; i < Node::kFloodInvalidThreshold + 4; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_GE(count(cluster, "rbft.nic_closures", 0), 1u);
    EXPECT_TRUE(cluster.network()
                    .nic(NodeId{0}, net::Address::node(NodeId{3}))
                    .closed(cluster.simulator().now()));
}

TEST(RbftNode, FloodBelowThresholdKeepsNicOpen) {
    Cluster cluster(quick_config());
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(1000, net::FloodMsg::Target::kPropagation);
    for (std::uint64_t i = 0; i + 1 < Node::kFloodInvalidThreshold; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_EQ(count(cluster, "rbft.nic_closures", 0), 0u);
}

TEST(RbftNode, FloodDefenseDoesNotAffectOtherPeers) {
    Cluster cluster(quick_config());
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(1000, net::FloodMsg::Target::kPropagation);
    for (std::uint64_t i = 0; i < Node::kFloodInvalidThreshold + 4; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(200.0));
    // Traffic from other nodes (and thus the protocol) keeps working.
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
}

// ---------------------------------------------------------------------------
// Misc node behaviour.

TEST(RbftNode, FaultyNodeDropsEverything) {
    Cluster cluster(quick_config());
    cluster.node(3).set_faulty(true);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);  // 3 correct nodes suffice (f=1)
    EXPECT_EQ(count(cluster, "rbft.requests_verified", 3), 0u);
    EXPECT_EQ(count(cluster, "rbft.requests_executed", 3), 0u);
}

TEST(RbftNode, ExtraInstancesOverride) {
    ClusterConfig cfg = quick_config();
    cfg.instances_override = 3;  // 2f+1 instead of f+1
    Cluster cluster(cfg);
    cluster.start();
    EXPECT_EQ(cluster.node(0).instance_count(), 3u);
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    for (std::uint32_t inst = 0; inst < 3; ++inst) {
        EXPECT_EQ(cluster.node(0).engine(InstanceId{inst}).total_ordered(), 1u);
    }
}

TEST(RbftNode, PrimariesDistinctAcrossInstances) {
    for (std::uint32_t f : {1u, 2u}) {
        ClusterConfig cfg = quick_config();
        cfg.f = f;
        Cluster cluster(cfg);
        std::set<NodeId> primaries;
        for (std::uint32_t inst = 0; inst < f + 1; ++inst) {
            primaries.insert(cluster.node(0).engine(InstanceId{inst}).primary());
        }
        EXPECT_EQ(primaries.size(), f + 1) << "f=" << f;
    }
}

TEST(RbftNode, ExecutionDeduplicatesAcrossDuplicateOrders) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(count(cluster, "rbft.requests_executed", i), 10u);
    }
}

TEST(RbftNode, RetiredRequestAnswersLateMessagesFromTheExecutedSet) {
    // Once a request is dispatched, executed and delivered by every local
    // instance its table entry is erased; the executed key set then answers
    // for it exactly as the entry did.  A late PROPAGATE or a client
    // retransmission of an older request must neither revive an entry nor
    // verify the body again.
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 3; ++i) {
        client.send_one();
        cluster.simulator().run_for(milliseconds(50.0));
    }
    Node& node = cluster.node(1);
    for (int step = 0; step < 40 && node.state_sizes().requests > 0; ++step) {
        cluster.simulator().run_for(milliseconds(50.0));
    }
    ASSERT_EQ(client.completed(), 3u);
    ASSERT_EQ(node.state_sizes().requests, 0u);
    const auto count_now = [&cluster](std::string_view name) { return count(cluster, name, 1); };
    const std::uint64_t verified = count_now("rbft.requests_verified");
    const std::uint64_t executed = count_now("rbft.requests_executed");
    const std::uint64_t resent = count_now("rbft.replies_resent");
    const std::uint64_t propagates = count_now("rbft.propagates_received");

    // rid 1: executed, but not the request whose reply is cached.
    auto req = std::make_shared<bft::RequestMsg>();
    req->client = ClientId{0};
    req->rid = RequestId{1};
    req->payload.assign(8, 0x11);
    req->digest = req->signed_digest();
    auto prop = std::make_shared<PropagateMsg>();
    prop->request = req;
    prop->sender = NodeId{2};
    node.on_message(net::Address::node(NodeId{2}), prop);
    node.on_message(net::Address::client(ClientId{0}), req);
    cluster.simulator().run_for(milliseconds(50.0));

    EXPECT_EQ(node.state_sizes().requests, 0u);
    EXPECT_EQ(count_now("rbft.requests_verified"), verified);
    EXPECT_EQ(count_now("rbft.requests_executed"), executed);
    EXPECT_EQ(count_now("rbft.replies_resent"), resent);
    EXPECT_EQ(count_now("rbft.propagates_received"), propagates + 1);
    bft::RequestRef ref;
    ref.client = req->client;
    ref.rid = req->rid;
    ref.digest = req->digest;
    EXPECT_TRUE(node.engine_request_cleared(ref));
}

}  // namespace
}  // namespace rbft::core
