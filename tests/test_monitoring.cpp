// Focused tests for RBFT's monitoring mechanism (§IV-C) and instance-change
// protocol (§IV-D): the Ω per-client fairness bound, repeated instance
// changes, vote bookkeeping across rounds, and monitoring-disabled nodes.
#include <gtest/gtest.h>

#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::core {
namespace {

using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

TEST(Monitoring, OmegaCatchesPerClientLatencyGap) {
    // The primary delays one client's requests but stays under Λ; the
    // master-vs-backup mean-latency gap for that client exceeds Ω.
    ClusterConfig cfg;
    cfg.seed = 3;
    cfg.batch_delay = milliseconds(0.3);
    cfg.monitoring.lambda = seconds(10.0);       // Λ out of the way
    cfg.monitoring.omega = milliseconds(2.0);    // Ω is the active bound
    Cluster cluster(cfg);
    cluster.start();

    bft::PrimaryBehavior unfair;
    unfair.per_request_delay = [](const bft::RequestRef& ref) {
        return ref.client == ClientId{0} ? milliseconds(4.0) : Duration{};
    };
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(unfair);

    ClientEndpoint victim(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    ClientEndpoint other(ClientId{1}, cluster.simulator(), cluster.network(), cluster.keys(),
                         4, 1);
    LoadGenerator load(cluster.simulator(),
                       std::vector<ClientEndpoint*>{&victim, &other},
                       LoadSpec::constant(1000.0, seconds(1.5), 2), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.0));

    EXPECT_GE(cluster.node(1).cpi(), 1u);  // Ω violation voted an instance change
    EXPECT_EQ(victim.completed(), victim.sent());
}

TEST(Monitoring, RepeatedInstanceChangesChaseRepeatOffenders) {
    // Two successive primaries misbehave; the cpi advances twice and the
    // system still serves everything.
    ClusterConfig cfg;
    cfg.seed = 3;
    Cluster cluster(cfg);
    cluster.start();

    bft::PrimaryBehavior slow;
    slow.inter_batch_gap = milliseconds(50.0);
    slow.batch_cap = 1;
    // Node 0 is the master primary in round 0; node 1 in round 1.
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(slow);
    cluster.node(1).engine(InstanceId{0}).set_primary_behavior(slow);

    auto client = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {client.get()},
                       LoadSpec::constant(3000.0, seconds(4.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(5.0));

    EXPECT_GE(cluster.node(2).cpi(), 2u);
    EXPECT_NE(cluster.master_primary_node(), NodeId{0});
    EXPECT_NE(cluster.master_primary_node(), NodeId{1});
    EXPECT_EQ(client->completed(), client->sent());
}

TEST(Monitoring, DisabledMonitorStillFollowsQuorum) {
    // A node with monitoring disabled never votes but must still perform
    // the instance change once 2f+1 votes arrive (otherwise it diverges).
    ClusterConfig cfg;
    cfg.seed = 3;
    Cluster cluster(cfg);
    cluster.node(2).set_monitoring_enabled(false);
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

    const obs::MetricsRegistry& metrics = cluster.recorder().metrics();
    EXPECT_EQ(metrics.counter_value("rbft.instance_changes_voted", 2), 0u);
    EXPECT_GE(metrics.counter_value("rbft.instance_changes_done", 2), 1u);
    EXPECT_EQ(cluster.node(2).cpi(), cluster.node(1).cpi());
}

TEST(Monitoring, MinWindowGuardSuppressesLowTrafficVerdicts) {
    // A trickle below kMinWindowRequests must never trigger an instance
    // change even if the master happens to order nothing in some windows.
    // A window counts the requests of both instances: 20 req/s is about 4
    // per 100 ms window, well below 20.  The master primary holds every
    // batch 40 ms, so its windows often miss what the backup's counted.
    ClusterConfig cfg;
    cfg.seed = 3;
    Cluster cluster(cfg);
    bft::PrimaryBehavior late;
    late.preprepare_delay = milliseconds(40.0);
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(late);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(20.0, seconds(3.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.5));
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(cluster.node(i).cpi(), 0u);
}

TEST(Monitoring, DeltaThresholdIsSharp) {
    // A master ordering at ~90% of the backups (below Δ=0.97) is caught; at
    // ~99% it is not.  The lever: a rate-limited master primary.
    auto run = [](double master_fraction) {
        ClusterConfig cfg;
        cfg.seed = 3;
        Cluster cluster(cfg);
        cluster.start();
        const double offered = 10000.0;
        bft::PrimaryBehavior limited;
        limited.batch_cap = 16;
        limited.inter_batch_gap = seconds(16.0 / (offered * master_fraction));
        cluster.node(0).engine(InstanceId{0}).set_primary_behavior(limited);
        auto client = std::make_unique<ClientEndpoint>(
            ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
        LoadGenerator load(cluster.simulator(), {client.get()},
                           LoadSpec::constant(offered, seconds(3.0), 1), Rng(5));
        load.start();
        cluster.simulator().run_for(seconds(3.5));
        return cluster.node(1).cpi();
    };
    EXPECT_GE(run(0.88), 1u);
    EXPECT_EQ(run(1.05), 0u);  // paced above the offered rate: harmless
}

TEST(Monitoring, VotesForFutureRoundsRetained) {
    // INSTANCE_CHANGE messages for a cpi ahead of ours are kept (we may be
    // the laggard); messages for a past cpi are discarded (§IV-D).
    ClusterConfig cfg;
    cfg.seed = 3;
    Cluster cluster(cfg);
    cluster.start();
    // Hand-deliver 2f+1 votes for cpi=0 from three distinct nodes.
    for (std::uint32_t sender : {1u, 2u, 3u}) {
        auto ic = std::make_shared<InstanceChangeMsg>();
        ic->cpi = 0;
        ic->sender = NodeId{sender};
        cluster.network().send(net::Address::node(NodeId{sender}),
                               net::Address::node(NodeId{0}), ic);
    }
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_EQ(cluster.node(0).cpi(), 1u);  // quorum performed the change
    // A stale vote for cpi=0 afterwards does nothing.
    auto stale = std::make_shared<InstanceChangeMsg>();
    stale->cpi = 0;
    stale->sender = NodeId{1};
    cluster.network().send(net::Address::node(NodeId{1}), net::Address::node(NodeId{0}), stale);
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_EQ(cluster.node(0).cpi(), 1u);
}

TEST(Monitoring, InstanceChangePreservesOneprimaryPerNode) {
    ClusterConfig cfg;
    cfg.f = 2;  // 3 instances on 7 nodes
    cfg.seed = 3;
    Cluster cluster(cfg);
    cluster.start();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(raw(cluster.master_primary_node()))
        .engine(InstanceId{0})
        .set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.5), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.5));

    EXPECT_GE(cluster.node(1).cpi(), 1u);
    std::set<NodeId> primaries;
    for (std::uint32_t inst = 0; inst < 3; ++inst) {
        primaries.insert(cluster.node(1).engine(InstanceId{inst}).primary());
    }
    EXPECT_EQ(primaries.size(), 3u);  // still at most one primary per node
    EXPECT_EQ(client.completed(), client.sent());
}

}  // namespace
}  // namespace rbft::core
