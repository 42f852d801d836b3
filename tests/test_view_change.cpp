// Regression tests for view-change convergence — the failure modes found
// while reproducing Fig. 2: delivered-elsewhere slots must be re-agreed for
// laggards, checkpoint quorums must state-transfer a node that fell behind,
// and staggered/escalating view-change targets must still converge.
#include <gtest/gtest.h>

#include "protocols/clusters.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft {
namespace {

using protocols::AardvarkCluster;
using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

TEST(ViewChange, LaggardCommitsSlotsDeliveredElsewhere) {
    // Reproduction of the wedge: node 0 misses a window of traffic, the
    // others deliver and view-change; the re-agreement in the new view must
    // let node 0 commit the missed slots (or state-transfer past them).
    core::ClusterConfig cfg;
    cfg.seed = 51;
    cfg.checkpoint_interval = 8;
    core::Cluster cluster(cfg);
    cluster.start();

    // Black-hole node 0's inbound replica traffic briefly.
    for (std::uint32_t peer = 1; peer < 4; ++peer) {
        cluster.network()
            .nic(NodeId{0}, net::Address::node(NodeId{peer}))
            .close_for(cluster.simulator().now(), milliseconds(400.0));
    }

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(1.0));
    // Coordinated instance change while node 0 is behind.
    for (std::uint32_t i = 0; i < 4; ++i) {
        for (std::uint32_t inst = 0; inst < 2; ++inst) {
            auto& engine = cluster.node(i).engine(InstanceId{inst});
            engine.start_view_change(next(engine.view()));
        }
    }
    cluster.simulator().run_for(seconds(2.0));

    EXPECT_EQ(client.completed(), client.sent());
    // Node 0 caught up: its delivery frontier is within a checkpoint of the
    // quorum's.
    const auto deliver0 = raw(cluster.node(0).engine(InstanceId{0}).next_to_deliver());
    const auto deliver1 = raw(cluster.node(1).engine(InstanceId{0}).next_to_deliver());
    EXPECT_GE(deliver0 + 2 * cfg.checkpoint_interval, deliver1);
}

TEST(ViewChange, StaggeredTargetsConverge) {
    // Nodes start view changes toward different targets (as happens when
    // monitors fire at different ticks); the f+1 join rule must converge
    // them onto one view with a live primary.
    core::ClusterConfig cfg;
    cfg.seed = 53;
    core::Cluster cluster(cfg);
    cluster.start();
    cluster.node(0).engine(InstanceId{0}).start_view_change(ViewId{1});
    cluster.simulator().run_for(milliseconds(5.0));
    cluster.node(1).engine(InstanceId{0}).start_view_change(ViewId{2});
    cluster.simulator().run_for(milliseconds(5.0));
    cluster.node(2).engine(InstanceId{0}).start_view_change(ViewId{2});
    cluster.simulator().run_for(seconds(2.0));

    // All engines settle on the same view and can order again.
    const ViewId settled = cluster.node(0).engine(InstanceId{0}).view();
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).engine(InstanceId{0}).view(), settled) << i;
        EXPECT_FALSE(cluster.node(i).engine(InstanceId{0}).view_change_in_progress()) << i;
    }
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
}

TEST(ViewChange, EscalationPastFaultyNewPrimary) {
    // The view-change target's primary is itself faulty: Aardvark's
    // escalation must skip past it to the next view.
    protocols::AardvarkCluster cluster(1, 55, {}, protocols::default_channel_aardvark());
    cluster.start();
    // Node 0 (view-0 primary) and node 1 (view-1 primary) are both silent.
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine().set_primary_behavior(silent);
    cluster.node(1).engine().set_primary_behavior(silent);
    cluster.node(1).set_faulty(true);  // does not even answer view changes

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(4.0));
    EXPECT_GE(raw(cluster.node(2).engine().view()), 2u);  // skipped view 1
    EXPECT_EQ(client.completed(), 10u);
}

TEST(ViewChange, SequentialChangesAcrossAllPrimaries) {
    // Walk the primary role around the whole ring via four coordinated
    // instance changes; ordering works in every configuration.
    core::ClusterConfig cfg;
    cfg.seed = 57;
    core::Cluster cluster(cfg);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);

    for (std::uint32_t round = 1; round <= 4; ++round) {
        for (std::uint32_t i = 0; i < 4; ++i) {
            for (std::uint32_t inst = 0; inst < 2; ++inst) {
                auto& engine = cluster.node(i).engine(InstanceId{inst});
                engine.start_view_change(ViewId{round});
            }
        }
        cluster.simulator().run_for(seconds(1.0));
        EXPECT_EQ(cluster.master_primary_node(), NodeId{round % 4});
        const auto before = client.completed();
        for (int r = 0; r < 5; ++r) client.send_one();
        cluster.simulator().run_for(seconds(1.0));
        EXPECT_EQ(client.completed(), before + 5) << "round " << round;
    }
}

TEST(ViewChange, MasterPrimaryCrashTriggersInstanceChange) {
    // The master primary's node crashes mid-run (a real crash severing all
    // I/O, not just a silent engine): the backup instance keeps ordering
    // while the master stalls, so monitoring on the 2f+1 survivors votes an
    // instance change and ordering resumes under the new master primary.
    core::ClusterConfig cfg;
    cfg.seed = 61;
    cfg.checkpoint_interval = 8;
    cfg.engine_retry_interval = milliseconds(50.0);
    core::Cluster cluster(cfg);
    cluster.start();

    workload::ClientBehavior behavior;
    behavior.retransmit_timeout = milliseconds(20.0);
    behavior.retransmit_backoff = 2.0;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(3.0), 1), Rng(5));
    load.start();
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(500.0),
                                    [&] { cluster.crash_node(NodeId{0}); });
    cluster.simulator().run_for(seconds(4.5));

    EXPECT_GE(cluster.node(1).cpi(), 1u);
    // Read the new configuration from a live node: node 0 is crashed and
    // its frozen engine still claims the old primary.
    EXPECT_NE(cluster.node(1).engine(InstanceId{0}).primary(), NodeId{0});
    EXPECT_EQ(client.completed(), client.sent());
}

TEST(ViewChange, CrashedMasterPrimaryRecoversAndRejoins) {
    // Crash + recover across an instance change: the restarted node comes
    // back with empty volatile state and a stale view, adopts the quorum's
    // view/cpi from checkpoint gossip, and catches up via state transfer
    // instead of stalling the new configuration.
    core::ClusterConfig cfg;
    cfg.seed = 61;
    cfg.checkpoint_interval = 8;
    cfg.engine_retry_interval = milliseconds(50.0);
    core::Cluster cluster(cfg);
    cluster.start();

    workload::ClientBehavior behavior;
    behavior.retransmit_timeout = milliseconds(20.0);
    behavior.retransmit_backoff = 2.0;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(3.5), 1), Rng(5));
    load.start();
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(500.0),
                                    [&] { cluster.crash_node(NodeId{0}); });
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(2500.0),
                                    [&] { cluster.restart_node(NodeId{0}); });
    cluster.simulator().run_for(seconds(5.5));

    EXPECT_EQ(client.completed(), client.sent());
    EXPECT_GE(cluster.node(1).cpi(), 1u);
    EXPECT_FALSE(cluster.node(0).crashed());
    EXPECT_EQ(cluster.recorder().metrics().counter_value("rbft.restarts", 0), 1u);
    // The recovered node converged on the quorum's configuration...
    EXPECT_EQ(cluster.node(0).cpi(), cluster.node(1).cpi());
    // ...and its master-instance frontier tracks the quorum via state
    // transfer (within a few checkpoint intervals).
    const auto stable0 = raw(cluster.node(0).engine(InstanceId{0}).last_stable());
    const auto stable1 = raw(cluster.node(1).engine(InstanceId{0}).last_stable());
    EXPECT_GT(stable0, 0u);
    EXPECT_GE(stable0 + 3 * cfg.checkpoint_interval, stable1);
}

TEST(ViewChange, F2CoordinatedChangeWorks) {
    core::ClusterConfig cfg;
    cfg.f = 2;
    cfg.seed = 59;
    core::Cluster cluster(cfg);
    cluster.start();
    for (std::uint32_t i = 0; i < cfg.n(); ++i) {
        for (std::uint32_t inst = 0; inst < 3; ++inst) {
            auto& engine = cluster.node(i).engine(InstanceId{inst});
            engine.start_view_change(next(engine.view()));
        }
    }
    cluster.simulator().run_for(seconds(2.0));
    for (std::uint32_t inst = 0; inst < 3; ++inst) {
        EXPECT_EQ(cluster.node(0).engine(InstanceId{inst}).view(), ViewId{1});
    }
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.5));
    EXPECT_EQ(client.completed(), 10u);
}

}  // namespace
}  // namespace rbft
