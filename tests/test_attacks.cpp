// Tests for the attack orchestration: each attack must degrade (or evade)
// exactly the way its paper section describes — and the RBFT defenses must
// hold.
#include <functional>
#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "exp/runners.hpp"

namespace rbft::attacks {
namespace {

// ---------------------------------------------------------------------------
// RBFT worst-attack-1: bounded damage, no instance change (Fig. 8/9).

TEST(WorstAttack1, ThroughputLossBounded) {
    exp::RbftScenario scenario;
    scenario.payload_bytes = 8;
    scenario.measure = seconds(2.0);
    const auto fault_free = exp::run_rbft(scenario);
    scenario.attack = exp::RbftScenario::Attack::kWorst1;
    const auto attacked = exp::run_rbft(scenario);
    EXPECT_GE(exp::relative_percent(attacked, fault_free), 95.0);
    EXPECT_EQ(attacked.instance_changes, 0u);
}

TEST(WorstAttack1, MasterAndBackupThroughputNearlyEqual) {
    exp::RbftScenario scenario;
    scenario.payload_bytes = 4096;
    scenario.attack = exp::RbftScenario::Attack::kWorst1;
    const auto attacked = exp::run_rbft(scenario);
    for (const auto& [master, backup] : attacked.node_throughputs) {
        ASSERT_GT(backup, 0.0);
        EXPECT_GT(master / backup, 0.95);  // paper Fig. 9: ~2% gap
        EXPECT_LT(master / backup, 1.05);
    }
}

TEST(WorstAttack1, ClientMaskTargetsMasterPrimaryNode) {
    core::Cluster cluster(core::ClusterConfig{});
    WorstAttack1 attack(cluster);
    attack.install();
    EXPECT_EQ(attack.client_mac_mask(),
              std::uint64_t{1} << raw(cluster.master_primary_node()));
    EXPECT_NE(attack.faulty_node(), cluster.master_primary_node());
    EXPECT_TRUE(cluster.node(attack.faulty_node()).faulty());
}

// ---------------------------------------------------------------------------
// RBFT worst-attack-2: the delaying primary stays above Δ (Fig. 10/11).

TEST(WorstAttack2, ThroughputLossBoundedAndUndetected) {
    exp::RbftScenario scenario;
    scenario.payload_bytes = 8;
    scenario.measure = seconds(3.0);
    const auto fault_free = exp::run_rbft(scenario);
    scenario.attack = exp::RbftScenario::Attack::kWorst2;
    const auto attacked = exp::run_rbft(scenario);
    EXPECT_GE(exp::relative_percent(attacked, fault_free), 95.0);  // paper: ≥97
    EXPECT_EQ(attacked.instance_changes, 0u);  // smartly malicious: undetected
}

TEST(WorstAttack2, FaultyNodeHostsMasterPrimary) {
    core::Cluster cluster(core::ClusterConfig{});
    WorstAttack2 attack(cluster);
    attack.install();
    EXPECT_EQ(attack.faulty_node(), cluster.master_primary_node());
    // The faulty node's backup replica abstains but the node is not fully
    // silenced (it must keep running the master primary).
    EXPECT_FALSE(cluster.node(attack.faulty_node()).faulty());
}

TEST(WorstAttack2, NaiveFloodGetsNicClosed) {
    // Sanity-check the defense the smart attacker is evading: flooding
    // above the threshold closes the NIC.
    core::ClusterConfig cfg;
    core::Cluster cluster(cfg);
    cluster.start();
    Flooder flooder(cluster.simulator(), cluster.network(), NodeId{0},
                    {net::Address::node(NodeId{1})}, net::FloodMsg::Target::kPropagation,
                    InstanceId{0}, /*rate=*/2000.0);
    flooder.start();
    cluster.simulator().run_for(milliseconds(300.0));
    EXPECT_TRUE(cluster.network()
                    .nic(NodeId{1}, net::Address::node(NodeId{0}))
                    .closed(cluster.simulator().now()));
}

// ---------------------------------------------------------------------------
// Unfair primary (Fig. 12).

// Node 0's master primary delays client 0's requests until Λ trips an
// instance change; `check` inspects the cluster after the run.
void run_unfair_primary(const std::function<void(core::Cluster&, const workload::ClientEndpoint&,
                                                 const workload::ClientEndpoint&)>& check) {
    core::ClusterConfig cfg;
    cfg.batch_delay = milliseconds(0.3);
    cfg.monitoring.lambda = milliseconds(1.5);
    core::Cluster cluster(cfg);
    UnfairPrimaryConfig ucfg;
    ucfg.stage1_requests = 100;
    ucfg.stage2_requests = 100;
    UnfairPrimary attack(cluster, ucfg);
    attack.install();
    cluster.recorder().enable_trace(1 << 18);
    cluster.start();

    workload::ClientBehavior big;
    big.payload_bytes = 4096;
    workload::ClientEndpoint victim(ClientId{0}, cluster.simulator(), cluster.network(),
                                    cluster.keys(), 4, 1, big);
    workload::ClientEndpoint other(ClientId{1}, cluster.simulator(), cluster.network(),
                                   cluster.keys(), 4, 1, big);
    workload::LoadGenerator load(
        cluster.simulator(),
        std::vector<workload::ClientEndpoint*>{&victim, &other},
        workload::LoadSpec::constant(1000.0, seconds(1.5), 2), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.0));
    check(cluster, victim, other);
}

TEST(UnfairPrimary, LatencyBoundEventuallyTriggersInstanceChange) {
    run_unfair_primary([](core::Cluster& cluster, const workload::ClientEndpoint& victim,
                          const workload::ClientEndpoint& other) {
        EXPECT_GE(cluster.node(1).cpi(), 1u);  // Λ violation detected
        // Both clients are served before and after the change.
        EXPECT_EQ(victim.completed(), victim.sent());
        EXPECT_EQ(other.completed(), other.sent());
    });
}

TEST(UnfairPrimary, InstanceChangesAddNoSecondLatencySample) {
    // Every instance change re-delivers requests the master already
    // ordered.  Fig. 12 takes one latency sample per request execution
    // event of a node: a re-delivery must not execute a request again and
    // so add a second, stale sample.
    run_unfair_primary([](core::Cluster& cluster, const workload::ClientEndpoint& victim,
                          const workload::ClientEndpoint& other) {
        ASSERT_GE(cluster.node(1).cpi(), 1u);
        const obs::TraceRing& trace = cluster.recorder().trace();
        ASSERT_EQ(trace.dropped(), 0u);
        std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> executions;
        for (const obs::TraceEvent& e : trace.snapshot()) {
            if (e.type == obs::EventType::kRequestExecuted) ++executions[{e.node, e.a}];
        }
        for (std::uint32_t i = 0; i < 4; ++i) {
            for (const workload::ClientEndpoint* c : {&victim, &other}) {
                EXPECT_LE((executions[{i, raw(c->id())}]), c->sent())
                    << "node " << i << " client " << raw(c->id());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Baseline attacks evade their protocols' detectors.

TEST(PrimeAttack, UndetectedWhileDegrading) {
    exp::BaselineScenario scenario;
    scenario.protocol = exp::Protocol::kPrime;
    scenario.exec_cost = milliseconds(0.1);
    const auto fault_free = exp::run_baseline(scenario);
    scenario.attack = true;
    const auto attacked = exp::run_baseline(scenario);
    EXPECT_LT(exp::relative_percent(attacked, fault_free), 90.0);  // damage...
    EXPECT_EQ(attacked.view_changes, 0u);  // ...without a rotation
}

TEST(SpinningAttack, DevastatingWithoutBlacklisting) {
    exp::BaselineScenario scenario;
    scenario.protocol = exp::Protocol::kSpinning;
    const auto fault_free = exp::run_baseline(scenario);
    scenario.attack = true;
    const auto attacked = exp::run_baseline(scenario);
    EXPECT_LT(exp::relative_percent(attacked, fault_free), 15.0);  // paper: 1%
    EXPECT_EQ(attacked.view_changes, 0u);  // never blacklisted
}

TEST(AardvarkAttack, DynamicLoadExploitsLowExpectations) {
    exp::BaselineScenario scenario;
    scenario.protocol = exp::Protocol::kAardvark;
    scenario.load = exp::LoadShape::kDynamic;
    const auto fault_free = exp::run_baseline(scenario);
    scenario.attack = true;
    const auto attacked = exp::run_baseline(scenario);
    EXPECT_LT(exp::relative_percent(attacked, fault_free), 40.0);  // paper: 13%
}

TEST(AardvarkAttack, StaticLoadBoundsTheDamage) {
    exp::BaselineScenario scenario;
    scenario.protocol = exp::Protocol::kAardvark;
    scenario.load = exp::LoadShape::kStatic;
    scenario.warmup = seconds(2.0);
    scenario.measure = seconds(4.0);
    const auto fault_free = exp::run_baseline(scenario);
    scenario.attack = true;
    const auto attacked = exp::run_baseline(scenario);
    EXPECT_GT(exp::relative_percent(attacked, fault_free), 70.0);  // paper: ≥76%
}

}  // namespace
}  // namespace rbft::attacks
