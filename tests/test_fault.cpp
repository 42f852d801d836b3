// Tests for the fault-injection subsystem: FaultPlan builder invariants,
// seeded random soak generation, FaultInjector lifecycle against a live
// cluster, and the chaos-soak acceptance run (safety + liveness + trace
// reproducibility).
#include <gtest/gtest.h>

#include <sstream>

#include "exp/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"

namespace rbft::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: builder + invariant helpers.

TEST(FaultPlan, BuilderTracksClearTimeAndHealing) {
    FaultPlan plan;
    plan.crash(TimePoint{} + seconds(1.0), NodeId{2})
        .partition(TimePoint{} + seconds(1.2), {{NodeId{0}, NodeId{1}, NodeId{3}}, {NodeId{2}}})
        .heal(TimePoint{} + seconds(1.8))
        .recover(TimePoint{} + seconds(2.0), NodeId{2});
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.events().size(), 4u);
    EXPECT_EQ(plan.last_clear_time(), TimePoint{} + seconds(2.0));
    EXPECT_TRUE(plan.fully_healed());
    EXPECT_EQ(plan.max_concurrent_crashes(), 1u);

    // A crash without a recover is not healed.
    FaultPlan open;
    open.crash(TimePoint{} + seconds(1.0), NodeId{0});
    EXPECT_FALSE(open.fully_healed());
}

TEST(FaultPlan, MaxConcurrentCrashesCountsOverlap) {
    FaultPlan plan;
    plan.crash(TimePoint{} + seconds(1.0), NodeId{0})
        .crash(TimePoint{} + seconds(1.1), NodeId{1})
        .recover(TimePoint{} + seconds(1.5), NodeId{0})
        .crash(TimePoint{} + seconds(1.6), NodeId{2})
        .recover(TimePoint{} + seconds(2.0), NodeId{1})
        .recover(TimePoint{} + seconds(2.1), NodeId{2});
    EXPECT_EQ(plan.max_concurrent_crashes(), 2u);
    EXPECT_TRUE(plan.fully_healed());
}

TEST(FaultPlan, RandomSoakBoundedByFAndFullyHealed) {
    for (std::uint32_t f : {1u, 2u}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            FaultPlan::SoakOptions opts;
            opts.f = f;
            const FaultPlan plan = FaultPlan::random_soak(opts, Rng(seed));
            ASSERT_FALSE(plan.empty()) << "f=" << f << " seed=" << seed;
            EXPECT_LE(plan.max_concurrent_crashes(), f) << "f=" << f << " seed=" << seed;
            EXPECT_TRUE(plan.fully_healed()) << "f=" << f << " seed=" << seed;
            // All events inside [warmup, duration - quiet_tail]; the quiet
            // tail stays fault-free so liveness is measurable.
            const auto window_end = (opts.duration - opts.quiet_tail).ns;
            for (const FaultEvent& e : plan.events()) {
                EXPECT_GE(e.at.ns, opts.warmup.ns);
                EXPECT_LE(e.at.ns, window_end);
            }
            EXPECT_LE(plan.last_clear_time().ns, window_end);
            // Partitions always keep a 2f+1 majority group.
            for (const FaultEvent& e : plan.events()) {
                if (e.kind != FaultEvent::Kind::kPartition) continue;
                std::size_t largest = 0;
                for (const auto& g : e.groups) largest = std::max(largest, g.size());
                EXPECT_GE(largest, 2 * f + 1);
            }
            // Events arrive in schedule order.
            for (std::size_t i = 1; i < plan.events().size(); ++i) {
                EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
            }
        }
    }
}

TEST(FaultPlan, RandomSoakSeedDeterminism) {
    FaultPlan::SoakOptions opts;
    const auto fingerprint = [&](std::uint64_t seed) {
        std::ostringstream out;
        const FaultPlan plan = FaultPlan::random_soak(opts, Rng(seed));
        for (const FaultEvent& e : plan.events()) {
            out << e.at.ns << ':' << fault_kind_name(e.kind) << ':' << raw(e.node) << ';';
        }
        return out.str();
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

// ---------------------------------------------------------------------------
// FaultInjector: events fire at their scheduled times against the cluster.

TEST(FaultInjector, AppliesScheduledEventsToCluster) {
    core::ClusterConfig cfg;
    cfg.seed = 11;
    core::Cluster cluster(cfg);
    cluster.start();

    FaultPlan plan;
    plan.crash(TimePoint{} + milliseconds(100.0), NodeId{3})
        .degrade_nic(TimePoint{} + milliseconds(150.0), NodeId{1}, 0.1)
        .recover(TimePoint{} + milliseconds(300.0), NodeId{3})
        .restore_nic(TimePoint{} + milliseconds(300.0), NodeId{1});
    FaultInjector injector(cluster, plan);
    injector.arm();

    cluster.simulator().run_for(milliseconds(200.0));
    EXPECT_TRUE(cluster.node(3).crashed());
    EXPECT_EQ(injector.applied(), 2u);

    cluster.simulator().run_for(milliseconds(200.0));
    EXPECT_FALSE(cluster.node(3).crashed());
    EXPECT_EQ(cluster.recorder().metrics().counter_value("rbft.restarts", 3), 1u);
    EXPECT_EQ(injector.applied(), plan.events().size());
}

TEST(FaultInjector, RestartedNodeCarriesPlantedEngineFaults) {
    core::ClusterConfig cfg;
    cfg.seed = 11;
    core::Cluster cluster(cfg);
    // The master primary (node 0) sends node 1 a variant batch, and one vote
    // is a quorum: node 1 commits a batch that nodes 2 and 3 do not.
    bft::EngineTestFaults faults;
    faults.equivocate_mask = 1ULL << 1;
    faults.prepare_quorum_override = 1;
    faults.commit_quorum_override = 1;
    cluster.plant_engine_faults(faults);
    cluster.start();

    // Node 0 crashes and restarts before any request, so only the engines
    // the restart built ever propose.
    FaultPlan plan;
    plan.crash(TimePoint{} + milliseconds(10.0), NodeId{0})
        .recover(TimePoint{} + milliseconds(20.0), NodeId{0});
    FaultInjector injector(cluster, plan);
    injector.arm();
    cluster.simulator().run_for(milliseconds(30.0));
    ASSERT_EQ(cluster.recorder().metrics().counter_value("rbft.restarts", 0), 1u);

    workload::ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                                    cluster.keys(), cluster.node_count(), cfg.f);
    client.send_one();
    cluster.simulator().run_for(milliseconds(200.0));

    // The equivocation reached the masked peer: both delivered master seq 1,
    // with different batches.
    const auto& masked = cluster.node(1).commit_log();
    const auto& unmasked = cluster.node(2).commit_log();
    ASSERT_FALSE(masked.empty());
    ASSERT_FALSE(unmasked.empty());
    EXPECT_EQ(masked.front().first, 1u);
    EXPECT_EQ(unmasked.front().first, 1u);
    EXPECT_NE(masked.front().second, unmasked.front().second);
}

// ---------------------------------------------------------------------------
// Chaos soak acceptance: a seeded soak (crash f nodes, partition + heal,
// link + NIC degradation) preserves safety, recovers liveness to within 2x
// of the fault-free twin, and produces a byte-identical trace when re-run
// with the same seed.

TEST(ChaosSoak, SeededSoakIsSafeLiveAndReproducible) {
    const auto run = [] {
        exp::ChaosSoakScenario scenario;
        scenario.seed = 1;
        scenario.recorder = std::make_shared<obs::Recorder>();
        scenario.recorder->enable_trace();
        return exp::run_chaos_soak(scenario);
    };
    const exp::ChaosSoakOutput a = run();

    // The generated plan exercises every fault class and clears them all.
    EXPECT_TRUE(a.plan.fully_healed());
    EXPECT_EQ(a.crashes, 1u);   // f = 1: exactly one crash cycle
    EXPECT_EQ(a.restarts, 1u);
    bool partitioned = false, nic = false, link = false;
    for (const FaultEvent& e : a.plan.events()) {
        partitioned |= e.kind == FaultEvent::Kind::kPartition;
        nic |= e.kind == FaultEvent::Kind::kDegradeNic;
        link |= e.kind == FaultEvent::Kind::kDegradeLink;
    }
    EXPECT_TRUE(partitioned);
    EXPECT_TRUE(nic);
    EXPECT_TRUE(link);
    EXPECT_EQ(a.faults_applied, a.plan.events().size());

    // Safety: no divergent committed prefixes across any pair of nodes.
    EXPECT_TRUE(a.safety_ok);
    EXPECT_GT(a.compared_seqs, 0u);
    EXPECT_GT(a.completed, 0u);

    // Liveness: post-recovery tail throughput within 2x of the
    // identically-seeded fault-free twin.
    EXPECT_GT(a.baseline_tail_kreq_s, 0.0);
    EXPECT_GE(a.tail_kreq_s * 2.0, a.baseline_tail_kreq_s);

    // Determinism: a second run with the same seed yields byte-identical
    // trace.json and metrics.json exports.
    const exp::ChaosSoakOutput b = run();
    std::ostringstream trace_a, trace_b;
    a.recorder->write_trace_json(trace_a);
    b.recorder->write_trace_json(trace_b);
    EXPECT_FALSE(trace_a.str().empty());
    EXPECT_EQ(trace_a.str(), trace_b.str());
    std::ostringstream metrics_a, metrics_b;
    a.recorder->write_metrics_json(metrics_a);
    b.recorder->write_metrics_json(metrics_b);
    EXPECT_EQ(metrics_a.str(), metrics_b.str());
    EXPECT_EQ(a.completed, b.completed);
}

}  // namespace
}  // namespace rbft::fault
