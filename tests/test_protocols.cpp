// Unit tests for the baseline protocols: Aardvark (regular view changes,
// expectations, heartbeats), Spinning (per-batch rotation, Stimeout,
// blacklist) and Prime (PO dissemination, periodic ordering, RTT-monitored
// delay bound, rotation on suspicion).
#include <gtest/gtest.h>

#include "protocols/clusters.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::protocols {
namespace {

using workload::ClientBehavior;
using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

// ---------------------------------------------------------------------------
// Aardvark.

TEST(Aardvark, CompletesRequests) {
    AardvarkCluster cluster(1, 3, {}, default_channel_aardvark());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 50; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 50u);
}

TEST(Aardvark, RegularViewChangesUnderSustainedLoad) {
    // The raise schedule eventually exceeds any primary's capacity, forcing
    // regular primary rotation (the paper's core Aardvark mechanism).
    AardvarkConfig cfg;
    cfg.grace_period = milliseconds(300.0);
    cfg.raise_factor = 1.05;
    AardvarkCluster cluster(1, 3, cfg, default_channel_aardvark());
    cluster.start();
    auto client = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {client.get()},
                       LoadSpec::constant(20000.0, seconds(4.0), 1), Rng(3));
    load.start();
    cluster.simulator().run_for(seconds(4.0));
    EXPECT_GE(raw(cluster.node(0).engine().view()), 1u);
}

TEST(Aardvark, HeartbeatDethronesSilentPrimary) {
    AardvarkCluster cluster(1, 3, {}, default_channel_aardvark());
    cluster.start();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine().set_primary_behavior(silent);
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 20; ++i) client.send_one();
    cluster.simulator().run_for(seconds(3.0));
    EXPECT_GE(raw(cluster.node(1).engine().view()), 1u);  // primary changed
    EXPECT_EQ(client.completed(), 20u);                   // and backlog ordered
}

TEST(Aardvark, RequirementBootstrapsFromObservedThroughput) {
    AardvarkCluster cluster(1, 3, {}, default_channel_aardvark());
    cluster.start();
    auto client = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {client.get()},
                       LoadSpec::constant(10000.0, seconds(1.5), 1), Rng(3));
    load.start();
    cluster.simulator().run_for(seconds(1.5));
    EXPECT_GT(cluster.node(1).required_tps(), 1000.0);
    EXPECT_LT(cluster.node(1).required_tps(), 12000.0);
}

TEST(Aardvark, SignatureVerificationEnabled) {
    AardvarkCluster cluster(1, 3, {}, default_channel_aardvark());
    cluster.start();
    ClientBehavior bad;
    bad.corrupt_sig = true;
    ClientEndpoint evil(ClientId{7}, cluster.simulator(), cluster.network(), cluster.keys(),
                        4, 1, bad);
    evil.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(evil.completed(), 0u);
    EXPECT_GE(cluster.recorder().metrics().counter_value("baseline.requests_invalid", 0), 1u);
}

TEST(Aardvark, ShedsUnderOverload) {
    AardvarkCluster cluster(1, 3, {}, default_channel_aardvark());
    cluster.start();
    auto client = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {client.get()},
                       LoadSpec::constant(60000.0, seconds(1.0), 1), Rng(3));  // 2x capacity
    load.start();
    cluster.simulator().run_for(seconds(1.5));
    EXPECT_GT(cluster.recorder().metrics().counter_value("baseline.requests_shed", 0), 0u);
}

// ---------------------------------------------------------------------------
// Spinning.

TEST(Spinning, CompletesRequests) {
    SpinningCluster cluster(1, 3, {}, default_channel_spinning());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 50; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 50u);
}

TEST(Spinning, ExecutedRequestsKeepNoBody) {
    // A baseline node keeps a request's body only until it executes; from
    // then on its executed key set answers for the request.
    SpinningCluster cluster(1, 3, {}, default_channel_spinning());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client}, LoadSpec::constant(2000.0, seconds(0.5), 1),
                       Rng(3));
    load.start();
    cluster.simulator().run_for(seconds(1.5));
    ASSERT_GT(client.sent(), 500u);
    ASSERT_EQ(client.completed(), client.sent());
    for (std::uint32_t i = 0; i < 4; ++i) {
        const core::StateSizes sizes = cluster.node(i).state_sizes();
        EXPECT_EQ(sizes.requests, 0u) << "node " << i;
        EXPECT_EQ(sizes.retained_bodies, 0u) << "node " << i;
        EXPECT_EQ(sizes.executed_tail, 0u) << "node " << i;
        ASSERT_EQ(sizes.ordered_tail.size(), 1u);
        EXPECT_EQ(sizes.ordered_tail[0], 0u) << "node " << i;
    }
}

TEST(Spinning, PrimaryRotatesWithEveryBatch) {
    SpinningCluster cluster(1, 3, {}, default_channel_spinning());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 100; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    // Views advance once per ordered batch — far more than any view-change
    // driven protocol would in one second.
    EXPECT_GE(raw(cluster.node(0).engine().view()), 100u / 12);
    // All nodes proposed at least once.
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GT(cluster.node(i).engine().preprepares_sent(), 0u) << i;
    }
}

TEST(Spinning, MacOnlyVerification) {
    // Spinning does not check client signatures: a corrupt-signature client
    // is NOT blacklisted (MACs still verify).
    SpinningCluster cluster(1, 3, {}, default_channel_spinning());
    cluster.start();
    ClientBehavior bad;
    bad.corrupt_sig = true;  // ignored by MAC-only verification
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, bad);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
}

TEST(Spinning, StimeoutBlacklistsStalledPrimary) {
    SpinningConfig cfg;
    cfg.stimeout = milliseconds(30.0);
    SpinningCluster cluster(1, 3, cfg, default_channel_spinning());
    cluster.start();
    // Node 0 (first primary) delays forever.
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine().set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 10u);  // ordered by the next primaries
    EXPECT_TRUE(cluster.node(1).blacklisted(NodeId{0}));
    EXPECT_GE(cluster.node(1).timeouts_fired(), 1u);
}

TEST(Spinning, StimeoutDoublesOnTimeoutAndResetsOnProgress) {
    SpinningConfig cfg;
    cfg.stimeout = milliseconds(30.0);
    SpinningCluster cluster(1, 3, cfg, default_channel_spinning());
    cluster.start();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine().set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(milliseconds(60.0));
    // The timeout fired (Stimeout doubled) — and once the next primary
    // orders the request, Stimeout resets to its initial value.
    EXPECT_GE(cluster.node(1).timeouts_fired(), 1u);
    cluster.simulator().run_for(seconds(2.0));  // ordering succeeds, resets
    EXPECT_EQ(cluster.node(1).current_stimeout(), milliseconds(30.0));
    EXPECT_EQ(client.completed(), 1u);
}

TEST(Spinning, BlacklistBoundedByF) {
    SpinningConfig cfg;
    cfg.stimeout = milliseconds(20.0);
    SpinningCluster cluster(1, 3, cfg, default_channel_spinning());
    cluster.start();
    // Stall two different primaries in turn; with f = 1 at most one node
    // stays blacklisted.
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine().set_primary_behavior(silent);
    cluster.node(1).engine().set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 5; ++i) client.send_one();
    cluster.simulator().run_for(seconds(3.0));
    int blacklisted = 0;
    for (std::uint32_t n : {0u, 1u, 2u, 3u}) {
        blacklisted += cluster.node(2).blacklisted(NodeId{n});
    }
    EXPECT_LE(blacklisted, 1);
    EXPECT_EQ(client.completed(), 5u);
}

// ---------------------------------------------------------------------------
// Prime.

TEST(Prime, CompletesRequests) {
    PrimeCluster cluster(1, 3, {}, default_channel_prime());
    cluster.start();
    ClientBehavior rr;
    rr.round_robin_single = true;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, rr);
    for (int i = 0; i < 50; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 50u);
}

TEST(Prime, LatencyDominatedByOrderingPeriod) {
    prime::PrimeConfig cfg;
    cfg.order_period = milliseconds(15.0);
    PrimeCluster cluster(1, 3, cfg, default_channel_prime());
    cluster.start();
    ClientBehavior rr;
    rr.round_robin_single = true;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, rr);
    for (int i = 0; i < 20; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    ASSERT_EQ(client.completed(), 20u);
    // Mean latency is on the order of the ordering period — an order of
    // magnitude above the PBFT-style protocols (paper Fig. 7).
    EXPECT_GT(client.latencies().summary().mean(), 0.004);
    EXPECT_LT(client.latencies().summary().mean(), 0.1);
}

TEST(Prime, OrdersEvenWhenClientsHitOneReplica) {
    PrimeCluster cluster(1, 3, {}, default_channel_prime());
    cluster.start();
    ClientBehavior single;
    single.targets = {NodeId{2}};
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, single);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 10u);
    // Every replica executed all requests (PO dissemination worked).
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.recorder().metrics().counter_value("prime.requests_executed", i), 10u)
            << i;
    }
}

TEST(Prime, SilentPrimaryGetsRotated) {
    PrimeCluster cluster(1, 3, {}, default_channel_prime());
    cluster.start();
    cluster.node(0).set_order_gap_override(seconds(100.0));  // never orders
    ClientBehavior rr;
    rr.round_robin_single = true;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, rr);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(3.0));
    EXPECT_GE(cluster.recorder().metrics().counter_value("prime.rotations", 1), 1u);
    EXPECT_NE(cluster.node(1).current_primary(), NodeId{0});
    EXPECT_EQ(client.completed(), 10u);
}

TEST(Prime, OrderBoundLoosensWithRtt) {
    PrimeCluster cluster(1, 3, {}, default_channel_prime());
    cluster.start();
    cluster.simulator().run_for(milliseconds(500.0));
    const Duration before = cluster.node(1).order_bound();
    // Execution hogging the event loop delays RTT echoes.
    ClientBehavior heavy;
    heavy.exec_cost = milliseconds(2.0);
    heavy.round_robin_single = true;
    auto client = std::make_unique<ClientEndpoint>(
        ClientId{5}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1, heavy);
    LoadGenerator load(cluster.simulator(), {client.get()},
                       LoadSpec::constant(400.0, seconds(2.0), 1), Rng(3));
    load.start();
    cluster.simulator().run_for(seconds(2.5));
    EXPECT_GT(cluster.node(1).order_bound(), before);
}

TEST(Prime, OrderBoundClamped) {
    prime::PrimeConfig cfg;
    PrimeCluster cluster(1, 3, cfg, default_channel_prime());
    cluster.start();
    const Duration max_bound =
        cfg.order_period + cfg.rtt_clamp * cfg.k_lat + milliseconds(0.001);
    EXPECT_LE(cluster.node(0).order_bound(), max_bound);
}

TEST(Prime, HonestPrimarySendsPeriodicOrders) {
    PrimeCluster cluster(1, 3, {}, default_channel_prime());
    cluster.start();
    cluster.simulator().run_for(seconds(1.0));
    // Even with zero load, (possibly empty) ORDER messages flow (§III-A).
    const obs::MetricsRegistry& metrics = cluster.recorder().metrics();
    EXPECT_GE(metrics.counter_value("prime.orders_sent", 0), 50u);  // 1s / 15ms ≈ 66
    EXPECT_GE(metrics.counter_value("prime.orders_received", 1), 50u);
}

}  // namespace
}  // namespace rbft::protocols
