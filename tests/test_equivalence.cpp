// Differential equivalence rig for the simulator's message pool.
//
// The free-list message pool (net/pool.hpp) is a pure performance
// substitution: flipping it off must not change a single observable byte
// of any run.  This rig proves it differentially — every scenario family
// behind the paper's figures, all three baseline protocols, the chaos
// soak, and a batch of check::explore schedules run two ways each:
//
//   hot    — pooled messages (production default)
//   noPool — plain make_shared messages
//
// and the rig asserts byte-identical metrics/trace/deterministic-profile
// JSON exports across both.  A trace diff of even one event ordering or
// one metric counter fails loudly with the scenario label.
//
// The short smoke (suffix `Smoke`) runs in tier-1 on every CI build; the
// full figure sweep carries the tier-2 label (nightly, with the explore
// suites).  See tests/CMakeLists.txt.
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/explore.hpp"
#include "exp/chaos.hpp"
#include "exp/runners.hpp"
#include "obs/recorder.hpp"

namespace rbft::exp {
namespace {

struct Export {
    std::string metrics;
    std::string trace;
    std::string profile;  // deterministic profiler block only (no wall times)
};

template <typename Scenario, typename Runner>
Export run_export(Scenario scenario, Runner&& runner) {
    auto recorder = std::make_shared<obs::Recorder>();
    recorder->enable_trace();
    recorder->enable_profiling();
    scenario.recorder = recorder;
    (void)runner(scenario);
    Export out;
    std::ostringstream metrics;
    recorder->write_metrics_json(metrics);
    out.metrics = metrics.str();
    std::ostringstream trace;
    recorder->write_trace_json(trace);
    out.trace = trace.str();
    std::ostringstream profile;
    recorder->profiler()->write_deterministic_json(profile);
    out.profile = profile.str();
    return out;
}

void expect_same(const Export& a, const Export& b, const char* label, const char* flip) {
    EXPECT_EQ(a.trace, b.trace) << label << ": trace diverged under " << flip;
    EXPECT_EQ(a.metrics, b.metrics) << label << ": metrics diverged under " << flip;
    EXPECT_EQ(a.profile, b.profile) << label << ": profile diverged under " << flip;
}

/// Runs `scenario` pooled and unpooled and asserts byte identity.
template <typename Scenario, typename Runner>
void expect_equivalent(Scenario scenario, Runner&& runner, const char* label) {
    scenario.runtime = RuntimeKnobs{true};
    const Export hot = run_export(scenario, runner);
    ASSERT_FALSE(hot.trace.empty()) << label << ": empty trace, rig is vacuous";

    Scenario no_pool = scenario;
    no_pool.runtime.pooled_messages = false;
    expect_same(hot, run_export(no_pool, runner), label, "unpooled messages");
}

RbftScenario short_rbft() {
    RbftScenario s;
    s.rate = 2000.0;
    s.seed = 20260810;
    s.warmup = milliseconds(300.0);
    s.measure = milliseconds(500.0);
    return s;
}

BaselineScenario short_baseline(Protocol protocol, bool attack) {
    BaselineScenario s;
    s.protocol = protocol;
    s.attack = attack;
    s.rate = 2000.0;
    s.seed = 20260810;
    s.warmup = milliseconds(300.0);
    s.measure = milliseconds(500.0);
    return s;
}

auto rbft_runner() {
    return [](const RbftScenario& s) { return run_rbft(s); };
}
auto baseline_runner() {
    return [](const BaselineScenario& s) { return run_baseline(s); };
}

// ---------------------------------------------------------------------------
// Tier-1 smoke: one RBFT and one baseline scenario, both variants.

TEST(EquivalenceSmoke, RbftFaultFree) {
    expect_equivalent(short_rbft(), rbft_runner(), "rbft tcp fault-free");
}

TEST(EquivalenceSmoke, AardvarkFaultFree) {
    expect_equivalent(short_baseline(Protocol::kAardvark, false), baseline_runner(),
                      "aardvark fault-free");
}

// The merged backend is a behavioral change, not a pure perf knob, but it
// must itself be deterministic: the pool flip stays byte-identical within
// a backend.

TEST(EquivalenceSmoke, RbftMergedBackend) {
    RbftScenario s = short_rbft();
    s.backend = bft::ExecutionBackend::kMerged;
    expect_equivalent(s, rbft_runner(), "rbft merged backend");
}

}  // namespace
}  // namespace rbft::exp

// ---------------------------------------------------------------------------
// Full sweep (tier-2): every figure-scenario family, chaos soak, explore.

namespace rbft::exp {
namespace {

TEST(EquivalenceFigures, Fig7RbftTcp) {
    expect_equivalent(short_rbft(), rbft_runner(), "fig7 rbft tcp");
}

TEST(EquivalenceFigures, Fig7RbftUdp) {
    RbftScenario s = short_rbft();
    s.use_udp = true;
    expect_equivalent(s, rbft_runner(), "fig7 rbft udp");
}

TEST(EquivalenceFigures, Fig7LargePayload) {
    RbftScenario s = short_rbft();
    s.payload_bytes = 1024;
    expect_equivalent(s, rbft_runner(), "fig7 rbft 1KiB payload");
}

TEST(EquivalenceFigures, Fig8Worst1Attack) {
    RbftScenario s = short_rbft();
    s.attack = RbftScenario::Attack::kWorst1;
    expect_equivalent(s, rbft_runner(), "fig8 worst-attack-1");
}

TEST(EquivalenceFigures, Fig10Worst2Attack) {
    RbftScenario s = short_rbft();
    s.attack = RbftScenario::Attack::kWorst2;
    expect_equivalent(s, rbft_runner(), "fig10 worst-attack-2");
}

TEST(EquivalenceFigures, Fig12DynamicLoad) {
    RbftScenario s = short_rbft();
    s.load = LoadShape::kDynamic;
    expect_equivalent(s, rbft_runner(), "fig12 dynamic load");
}

TEST(EquivalenceFigures, Table1OrderFullRequests) {
    RbftScenario s = short_rbft();
    s.order_full_requests = true;
    expect_equivalent(s, rbft_runner(), "table1 order-full-requests");
}

TEST(EquivalenceFigures, AblationDeltaAndInstances) {
    RbftScenario s = short_rbft();
    s.delta = 0.90;
    s.instances_override = 1;
    expect_equivalent(s, rbft_runner(), "ablation delta=0.90 instances=1");
}

TEST(EquivalenceFigures, MergedBackendUnderWorst2Attack) {
    RbftScenario s = short_rbft();
    s.attack = RbftScenario::Attack::kWorst2;
    s.backend = bft::ExecutionBackend::kMerged;
    expect_equivalent(s, rbft_runner(), "merged backend worst-attack-2");
}

TEST(EquivalenceFigures, Fig2AardvarkAttack) {
    expect_equivalent(short_baseline(Protocol::kAardvark, true), baseline_runner(),
                      "fig2 aardvark attack");
}

TEST(EquivalenceFigures, Fig3SpinningAttack) {
    expect_equivalent(short_baseline(Protocol::kSpinning, true), baseline_runner(),
                      "fig3 spinning attack");
}

TEST(EquivalenceFigures, Fig1PrimeAttack) {
    expect_equivalent(short_baseline(Protocol::kPrime, true), baseline_runner(),
                      "fig1 prime attack");
}

// ---------------------------------------------------------------------------
// Chaos soak: crash/partition/heal churn with client retransmission is the
// adversarial case for the pool (messages released out of order, bursty
// fan-out under cancelled timers).

TEST(EquivalenceChaos, SoakIsByteIdenticalPooledAndUnpooled) {
    auto run = [](bool pooled) {
        ChaosSoakScenario s;
        s.seed = 20260810;
        s.duration = seconds(4.0);
        s.quiet_tail = seconds(1.5);
        s.pooled_messages = pooled;
        auto recorder = std::make_shared<obs::Recorder>();
        recorder->enable_trace();
        s.recorder = recorder;
        const ChaosSoakOutput out = run_chaos_soak(s);
        std::ostringstream metrics, trace;
        recorder->write_metrics_json(metrics);
        recorder->write_trace_json(trace);
        return std::tuple{out.safety_ok, out.completed, out.compared_seqs,
                          out.faults_applied, metrics.str(), trace.str()};
    };
    const auto hot = run(true);
    ASSERT_TRUE(std::get<0>(hot));
    ASSERT_GT(std::get<1>(hot), 0u);
    EXPECT_EQ(hot, run(false)) << "pooled vs heap messages under chaos";
}

// ---------------------------------------------------------------------------
// Schedule exploration: 20 perturbed schedules per configuration, run on 8
// worker lanes so each lane exercises its own pool concurrently (the
// thread-confinement invariant; the ASan/TSan CI jobs run this same
// binary).  The whole ExploreOutcome must match: oracle check counts,
// event totals, completions, and the absence of violations.

TEST(EquivalenceExplore, TwentySeedsMatchPooledAndUnpooled) {
    auto run = [](bool pooled) {
        check::ExploreScenario s;
        s.pooled_messages = pooled;
        s.duration = seconds(1.0);
        const check::ExploreOutcome out = check::explore(s, /*first_seed=*/7001,
                                                         /*num_seeds=*/20, /*jobs=*/8);
        return std::tuple{out.seeds_run, out.seeds_violating, out.checks, out.events,
                          out.completed};
    };
    const auto hot = run(true);
    EXPECT_EQ(std::get<0>(hot), 20u);
    EXPECT_EQ(std::get<1>(hot), 0u);
    EXPECT_GT(std::get<3>(hot), 0u);
    EXPECT_EQ(hot, run(false)) << "pooled vs heap messages across explore seeds";
}

}  // namespace
}  // namespace rbft::exp
