// Unit tests for the experiment harness: window measurement, capacity
// model, relative-throughput math and scenario runner plumbing.
#include <gtest/gtest.h>

#include "exp/harness.hpp"
#include "exp/runners.hpp"

namespace rbft::exp {
namespace {

TEST(CapacityModel, MatchesCalibratedOrdering) {
    // Fault-free peak ordering at 8 B (paper Fig. 7a): Spinning > RBFT >
    // Aardvark > Prime.
    EXPECT_GT(capacity(Protocol::kSpinning, 8), capacity(Protocol::kRbftTcp, 8));
    EXPECT_GT(capacity(Protocol::kRbftTcp, 8), capacity(Protocol::kAardvark, 8));
    EXPECT_GT(capacity(Protocol::kAardvark, 8), capacity(Protocol::kPrime, 8));
}

TEST(CapacityModel, RbftBeatsAardvarkMoreAtLargeRequests) {
    // Ordering identifiers (RBFT) vs whole requests (Aardvark): the gap
    // widens with request size (paper §VI-B).
    const double ratio_small = capacity(Protocol::kRbftTcp, 8) / capacity(Protocol::kAardvark, 8);
    const double ratio_large =
        capacity(Protocol::kRbftTcp, 4096) / capacity(Protocol::kAardvark, 4096);
    EXPECT_GT(ratio_large, ratio_small);
}

TEST(CapacityModel, ExecutionCostBindsDifferently) {
    // RBFT executes on a dedicated core: small execution costs don't reduce
    // capacity; single-loop protocols pay serially.
    const Duration exec = microseconds(10.0);
    EXPECT_DOUBLE_EQ(capacity(Protocol::kRbftTcp, 8, exec), capacity(Protocol::kRbftTcp, 8));
    EXPECT_LT(capacity(Protocol::kAardvark, 8, exec), capacity(Protocol::kAardvark, 8));
}

TEST(CapacityModel, HeavyExecutionDominatesRbftToo) {
    const Duration exec = milliseconds(1.0);
    EXPECT_NEAR(capacity(Protocol::kRbftTcp, 8, exec), 1000.0, 1.0);
}

TEST(CapacityModel, SaturatedRateBelowCapacity) {
    for (auto p : {Protocol::kRbftTcp, Protocol::kAardvark, Protocol::kSpinning,
                   Protocol::kPrime}) {
        EXPECT_LT(saturated_rate(p, 8), capacity(p, 8));
        EXPECT_GT(saturated_rate(p, 8), 0.5 * capacity(p, 8));
    }
}

TEST(Harness, MeasureWindowFiltersByTime) {
    sim::Simulator sim;
    net::Network net(sim, 4, Rng(1));
    crypto::KeyStore keys(1);
    std::vector<std::unique_ptr<workload::ClientEndpoint>> clients;
    clients.push_back(
        std::make_unique<workload::ClientEndpoint>(ClientId{0}, sim, net, keys, 4, 1));
    // Inject two completions by hand at 1s and 3s.
    auto& c = *clients[0];
    for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, nullptr);
    const RequestId r1 = c.send_one();
    const RequestId r2 = c.send_one();
    auto reply = [&](NodeId n, RequestId rid) {
        auto m = std::make_shared<bft::ReplyMsg>();
        m->client = ClientId{0};
        m->rid = rid;
        m->node = n;
        net.send(net::Address::node(n), net::Address::client(ClientId{0}), m);
    };
    sim.run_for(seconds(1.0));
    reply(NodeId{0}, r1);
    reply(NodeId{1}, r1);
    sim.run_for(seconds(2.0));
    reply(NodeId{0}, r2);
    reply(NodeId{1}, r2);
    sim.run_all();

    const RunResult window = measure_window(clients, TimePoint{} + seconds(0.5),
                                            TimePoint{} + seconds(2.0));
    EXPECT_EQ(window.completed, 1u);
    EXPECT_NEAR(window.kreq_s, 1.0 / 1.5 / 1000.0, 1e-6);
    const RunResult all = measure_window(clients, TimePoint{}, TimePoint{} + seconds(10.0));
    EXPECT_EQ(all.completed, 2u);
    EXPECT_EQ(all.sent, 2u);
}

TEST(Harness, RelativePercentMath) {
    ScenarioOutput a, b;
    a.result.kreq_s = 5.0;
    b.result.kreq_s = 10.0;
    EXPECT_DOUBLE_EQ(relative_percent(a, b), 50.0);
    b.result.kreq_s = 0.0;
    EXPECT_DOUBLE_EQ(relative_percent(a, b), 0.0);
}

TEST(Runners, RbftScenarioRunsAndMeasures) {
    RbftScenario scenario;
    scenario.rate = 2000.0;
    scenario.warmup = milliseconds(300.0);
    scenario.measure = milliseconds(700.0);
    const auto out = run_rbft(scenario);
    EXPECT_NEAR(out.result.kreq_s, 2.0, 0.3);
    EXPECT_EQ(out.instance_changes, 0u);
    EXPECT_EQ(out.node_throughputs.size(), 4u);
}

TEST(Runners, DeterministicForSeed) {
    RbftScenario scenario;
    scenario.rate = 2000.0;
    scenario.warmup = milliseconds(300.0);
    scenario.measure = milliseconds(700.0);
    const auto a = run_rbft(scenario);
    const auto b = run_rbft(scenario);
    EXPECT_EQ(a.result.completed, b.result.completed);
    EXPECT_DOUBLE_EQ(a.result.mean_latency_ms, b.result.mean_latency_ms);
}

TEST(Runners, BaselineScenarioRunsAndMeasures) {
    BaselineScenario scenario;
    scenario.protocol = Protocol::kSpinning;
    scenario.rate = 2000.0;
    scenario.warmup = milliseconds(300.0);
    scenario.measure = milliseconds(700.0);
    const auto out = run_baseline(scenario);
    EXPECT_NEAR(out.result.kreq_s, 2.0, 0.3);
}

TEST(StateBounds, TenTimesLongerRunEndsWithTheSameBoundedState) {
    // Soak check for per-request state: a fault-free saturated run 10x
    // longer than a short one must end (after run_rbft's drain) with the
    // same request-table size, retained-body count and key-set tails,
    // within a small constant, and no more held PRE-PREPAREs.  Finished
    // requests leave the table; the executed key set answers late
    // PROPAGATEs and engine clearance queries for them (see DESIGN.md,
    // state lifetimes).
    const auto run = [](Duration load) {
        RbftScenario scenario;
        scenario.seed = 3;
        scenario.clients = 10;
        scenario.warmup = milliseconds(100.0);
        scenario.measure = load - scenario.warmup;
        return run_rbft(scenario);
    };
    const ScenarioOutput short_run = run(milliseconds(200.0));
    const ScenarioOutput long_run = run(milliseconds(2000.0));
    ASSERT_EQ(short_run.node_state.size(), long_run.node_state.size());

    constexpr std::size_t kSlack = 8;
    for (std::size_t i = 0; i < long_run.node_state.size(); ++i) {
        const core::StateSizes& s = short_run.node_state[i];
        const core::StateSizes& l = long_run.node_state[i];
        EXPECT_LE(l.requests, s.requests + kSlack) << "node " << i;
        EXPECT_LE(l.retained_bodies, s.retained_bodies + kSlack) << "node " << i;
        EXPECT_LE(l.executed_tail, s.executed_tail + kSlack) << "node " << i;
        ASSERT_EQ(l.ordered_tail.size(), s.ordered_tail.size());
        for (std::size_t inst = 0; inst < l.ordered_tail.size(); ++inst) {
            EXPECT_LE(l.ordered_tail[inst], s.ordered_tail[inst] + kSlack)
                << "node " << i << " instance " << inst;
            EXPECT_LE(l.held_preprepares.at(inst), s.held_preprepares.at(inst))
                << "node " << i << " instance " << inst;
        }
    }
}

TEST(Runners, DynamicSpecSpikes) {
    const auto spec = dynamic_spec(10000.0, milliseconds(100.0));
    double max_rate = 0.0;
    for (const auto& stage : spec.stages) max_rate = std::max(max_rate, stage.rate);
    EXPECT_NEAR(max_rate, 20000.0, 1.0);  // 2x saturation at the spike
}

}  // namespace
}  // namespace rbft::exp
