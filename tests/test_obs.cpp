// Observability layer: metric registry correctness, flight-recorder ring
// semantics, deterministic JSON export across same-seed runs, the hot-path
// profiler (zones, counters, report round-trip), and the monitoring-verdict
// / instance-change events emitted under attack.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>

#include "exp/runners.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/prof_report.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::obs {
namespace {

TEST(Metrics, CounterHandlesAreStableAndScoped) {
    MetricsRegistry reg;
    Counter* a = reg.counter("x", 0);
    Counter* b = reg.counter("x", 1);
    Counter* global = reg.counter("x");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, reg.counter("x", 0));  // same key -> same handle

    a->add(3);
    b->add(4);
    global->add(10);
    EXPECT_EQ(reg.counter_value("x", 0), 3u);
    EXPECT_EQ(reg.counter_value("x", 1), 4u);
    EXPECT_EQ(reg.counter_value("x"), 10u);
    EXPECT_EQ(reg.counter_sum("x"), 17u);
    EXPECT_EQ(reg.counter_value("missing"), 0u);
}

TEST(Metrics, HistogramQuantilesBracketSamples) {
    MetricsRegistry reg;
    LatencyHistogram* h = reg.histogram("lat", 2, 1);
    for (int i = 1; i <= 1000; ++i) h->add(static_cast<double>(i) * 1e-3);
    EXPECT_EQ(h->summary().count(), 1000u);
    EXPECT_NEAR(h->summary().mean(), 0.5005, 1e-6);
    // Log-bucketed: quantiles are approximate but must be in range and ordered.
    const double p50 = h->quantile(0.50);
    const double p99 = h->quantile(0.99);
    EXPECT_GT(p50, 0.25);
    EXPECT_LT(p50, 0.75);
    EXPECT_GE(p99, p50);
    EXPECT_LE(p99, 1.0 + 1e-9);
}

TEST(Metrics, QuantileSortedUsesNearestRank) {
    // The old `lats[(n * 99) / 100]` indexing collapsed to max() for n < 100
    // only at n=1 and was biased high elsewhere; nearest-rank is exact.
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i) v.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.50), 5.0);   // ceil(0.5*10) = 5th
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.99), 10.0);  // ceil(9.9) = 10th
    EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.10), 1.0);
    EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(Trace, RingWrapsAndKeepsNewestEvents) {
    TraceRing ring(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        ring.record({TimePoint{static_cast<std::int64_t>(i)}, EventType::kRequestReceived,
                     0, 0, i, 0, 0.0});
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.recorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].a, 6 + i);  // oldest-first, newest 4 retained
    }
}

TEST(Trace, DisabledRecorderDropsEvents) {
    Recorder recorder;
    EXPECT_FALSE(recorder.tracing());
    recorder.event({TimePoint{1}, EventType::kCommitted, 0, 0, 1, 0, 0.0});
    EXPECT_EQ(recorder.trace().recorded(), 0u);
    recorder.enable_trace(8);
    recorder.event({TimePoint{2}, EventType::kCommitted, 0, 0, 2, 0, 0.0});
    EXPECT_EQ(recorder.trace().recorded(), 1u);
}

// ---------------------------------------------------------------------------
// Hot-path profiler.

TEST(Prof, NullScopeIsANoOp) {
    prof::Scope scope(nullptr, "never-recorded");
    RBFT_PROF_ZONE(static_cast<prof::Profiler*>(nullptr), "also-never-recorded");
    SUCCEED();  // disabled sites reduce to one pointer test
}

TEST(Prof, ZonesNestIntoHierarchicalPaths) {
    prof::Profiler p;
    {
        prof::Scope a(&p, "a");
        EXPECT_EQ(p.open_depth(), 1u);
        { prof::Scope b(&p, "b", 3); }
        { prof::Scope b(&p, "b", 3); }
    }
    { prof::Scope solo(&p, "b"); }  // top-level "b": distinct from "a;b"
    EXPECT_EQ(p.open_depth(), 0u);

    const auto zones = p.zones_by_path();
    ASSERT_EQ(zones.size(), 3u);
    EXPECT_EQ(zones.at("a").calls, 1u);
    EXPECT_EQ(zones.at("a;b").calls, 2u);
    EXPECT_EQ(zones.at("b").calls, 1u);
    // Parent total covers its children; self never exceeds total.
    EXPECT_GE(zones.at("a").wall_total_ns, zones.at("a;b").wall_total_ns);
    EXPECT_LE(zones.at("a").wall_self_ns, zones.at("a").wall_total_ns);
}

TEST(Prof, CountersAggregateAcrossScopes) {
    prof::Profiler p;
    p.counter("x", 0)->add(3);
    p.counter("x", 1)->add(4);
    p.counter("x")->add(10);
    EXPECT_EQ(p.counter("x", 0), p.counter("x", 0));  // stable handles
    EXPECT_EQ(p.counter_value("x", 0), 3u);
    EXPECT_EQ(p.counter_value("x", 1), 4u);
    EXPECT_EQ(p.counter_sum("x"), 17u);
    EXPECT_EQ(p.counter_value("missing"), 0u);
}

TEST(Prof, DeterministicJsonIsStableAndExcludesWallTime) {
    auto build = [] {
        prof::Profiler p;
        {
            prof::Scope a(&p, "sim.dispatch");
            prof::Scope b(&p, "net.deliver", 2);
        }
        p.counter("wire.bytes_copied")->add(128);
        std::ostringstream os;
        p.write_deterministic_json(os);
        return os.str();
    };
    const std::string first = build();
    EXPECT_EQ(first, build());  // wall-clock must not leak into this block
    EXPECT_NE(first.find("\"zones\""), std::string::npos);
    EXPECT_NE(first.find("sim.dispatch;net.deliver"), std::string::npos);
    EXPECT_EQ(first.find("_ns"), std::string::npos);
}

TEST(Prof, ProfileJsonRoundTripsThroughReportParser) {
    prof::Profiler p;
    {
        prof::Scope a(&p, "alpha");
        prof::Scope b(&p, "beta", 2, 1);
    }
    p.counter("c.x", 1)->add(5);
    p.counter("c.x", 2)->add(7);

    std::ostringstream os;
    p.write_profile_json(os);
    std::istringstream in(os.str());
    prof::Report parsed;
    ASSERT_TRUE(prof::parse_profile_json(in, parsed));

    const prof::Report direct = prof::report_from(p);
    const auto parsed_zones = parsed.zones_by_path();
    const auto direct_zones = direct.zones_by_path();
    ASSERT_EQ(parsed_zones.size(), direct_zones.size());
    for (std::size_t i = 0; i < parsed_zones.size(); ++i) {
        EXPECT_EQ(parsed_zones[i].path, direct_zones[i].path);
        EXPECT_EQ(parsed_zones[i].calls, direct_zones[i].calls);
        EXPECT_EQ(parsed_zones[i].self_ns, direct_zones[i].self_ns);
        EXPECT_EQ(parsed_zones[i].total_ns, direct_zones[i].total_ns);
    }
    ASSERT_EQ(parsed.counters.size(), direct.counters.size());
    std::uint64_t parsed_sum = 0;
    for (const auto& c : parsed.counters) parsed_sum += c.value;
    EXPECT_EQ(parsed_sum, 12u);

    std::ostringstream hotspots;
    prof::render_hotspots(hotspots, parsed, 10);
    EXPECT_NE(hotspots.str().find("alpha;beta"), std::string::npos);
    std::ostringstream collapsed;
    prof::render_collapsed(collapsed, parsed);
    EXPECT_NE(collapsed.str().find("alpha;beta "), std::string::npos);
}

TEST(Prof, ProfiledRunCoversCoreZonesAndDisabledRunHasNoProfiler) {
    exp::RbftScenario scenario;
    scenario.seed = 11;
    scenario.warmup = seconds(0.5);
    scenario.measure = seconds(1.0);
    scenario.recorder = std::make_shared<Recorder>();
    scenario.recorder->enable_profiling();
    const exp::ScenarioOutput out = exp::run_rbft(scenario);
    const prof::Profiler* p = out.recorder->profiler();
    ASSERT_NE(p, nullptr);

    const auto zones = p->zones_by_path();
    auto has_zone_suffix = [&](const std::string& suffix) {
        for (const auto& [path, agg] : zones) {
            if (path.size() >= suffix.size() &&
                path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0 &&
                agg.calls > 0) {
                return true;
            }
        }
        return false;
    };
    EXPECT_GT(zones.at("sim.dispatch").calls, 0u);
    EXPECT_TRUE(has_zone_suffix("net.send"));
    EXPECT_TRUE(has_zone_suffix("net.deliver"));
    EXPECT_TRUE(has_zone_suffix("rbft.on_message"));
    EXPECT_TRUE(has_zone_suffix("bft.on_message"));
    EXPECT_TRUE(has_zone_suffix("client.request_build"));
    EXPECT_GT(p->counter_value("sim.events_dispatched"), 0u);
    EXPECT_GT(p->counter_sum("net.messages_sent"), 0u);
    // wire.bytes_copied counts buffer *churn*, not serialization work;
    // the client signing path streams through an incremental hasher, so a
    // steady-state run reports zero copies on this counter.
    EXPECT_EQ(p->counter_sum("wire.bytes_copied"), 0u);
    EXPECT_EQ(p->counter_sum("wire.allocs"), 0u);
    EXPECT_GT(p->counter_sum("crypto.digests_computed"), 0u);
    EXPECT_GT(p->counter_sum("crypto.macs_computed"), 0u);
    // The memo works: body digests are far rarer than MACs.
    EXPECT_LT(p->counter_sum("crypto.digests_computed"),
              p->counter_sum("crypto.macs_computed"));

    // Same scenario without enable_profiling(): no profiler anywhere.
    exp::RbftScenario off = scenario;
    off.recorder = std::make_shared<Recorder>();
    const exp::ScenarioOutput out_off = exp::run_rbft(off);
    EXPECT_EQ(out_off.recorder->profiler(), nullptr);
    EXPECT_FALSE(out_off.recorder->profiling());
}

/// One instrumented RBFT run; returns its metrics + trace JSON.
std::pair<std::string, std::string> instrumented_run() {
    exp::RbftScenario scenario;
    scenario.seed = 11;
    scenario.warmup = seconds(0.5);
    scenario.measure = seconds(1.0);
    scenario.recorder = std::make_shared<Recorder>();
    scenario.recorder->enable_trace();
    const exp::ScenarioOutput out = exp::run_rbft(scenario);

    std::ostringstream metrics, trace;
    out.recorder->write_metrics_json(metrics);
    out.recorder->write_trace_json(trace);
    EXPECT_GT(out.result.completed, 0u);
    // Sanity: the client-side result came from the registry.
    EXPECT_EQ(out.recorder->metrics().counter_sum("client.sent"), out.result.sent);
    return {metrics.str(), trace.str()};
}

TEST(Export, SameSeedRunsProduceIdenticalJson) {
    const auto [metrics1, trace1] = instrumented_run();
    const auto [metrics2, trace2] = instrumented_run();
    EXPECT_FALSE(metrics1.empty());
    EXPECT_GT(trace1.find("\"events\""), 0u);
    EXPECT_EQ(metrics1, metrics2);
    EXPECT_EQ(trace1, trace2);
}

TEST(Export, InstrumentedRunCoversAllLayers) {
    exp::RbftScenario scenario;
    scenario.seed = 11;
    scenario.warmup = seconds(0.5);
    scenario.measure = seconds(1.0);
    scenario.recorder = std::make_shared<Recorder>();
    scenario.recorder->enable_profiling();
    const exp::ScenarioOutput out = exp::run_rbft(scenario);
    const MetricsRegistry& reg = out.recorder->metrics();
    // The keys perfbench reads by name: counter_sum() of a misspelled or
    // unregistered name is a silent 0, so each must exist (some are
    // legitimately 0 in a fault-free run).
    const auto has_key = [](const auto& counters, std::string_view name) {
        return std::any_of(counters.begin(), counters.end(),
                           [name](const auto& entry) { return entry.first.name == name; });
    };
    for (const char* name :
         {"rbft.instance_changes_done", "rbft.requests_received", "rbft.requests_verified",
          "bft.view_changes", "net.messages_sent", "net.bytes_sent", "net.messages_lost",
          "net.dropped_closed_nic", "net.dropped_fault"}) {
        EXPECT_TRUE(has_key(reg.counters(), name)) << name;
    }
    for (const char* name : {"wire.allocs", "wire.bytes_copied"}) {
        EXPECT_TRUE(has_key(out.recorder->profiler()->counters(), name)) << name;
    }
    EXPECT_GT(reg.counter_value("sim.events_dispatched"), 0u);
    EXPECT_GT(reg.counter_value("net.messages_sent"), 0u);
    EXPECT_GT(reg.counter_sum("bft.requests_ordered"), 0u);
    EXPECT_GT(reg.counter_sum("rbft.requests_verified"), 0u);
    EXPECT_GT(reg.counter_sum("crypto.mac_ops"), 0u);
    EXPECT_GT(reg.counter_sum("client.completed"), 0u);
    // Per-instance scoping: master (instance 0) and backup (instance 1)
    // both ordered requests on node 0.
    EXPECT_GT(reg.counter_value("bft.requests_ordered", 0, 0), 0u);
    EXPECT_GT(reg.counter_value("bft.requests_ordered", 0, 1), 0u);
}

TEST(Export, ForcedInstanceChangeEmitsVerdictAndChangeEvents) {
    // A throttling master primary drives the monitored ratio below Δ; the
    // trace must show below-delta monitoring verdicts, instance-change
    // votes, and the completed change.
    Recorder recorder;
    // The change happens early; a big ring keeps its events from being
    // evicted by the steady-state traffic that follows.
    recorder.enable_trace(1 << 20);
    core::ClusterConfig cfg;
    cfg.seed = 7;
    cfg.recorder = &recorder;
    core::Cluster cluster(cfg);
    cluster.start();

    bft::PrimaryBehavior slow;
    slow.inter_batch_gap = milliseconds(50.0);
    slow.batch_cap = 1;
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(slow);

    workload::ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                                    cluster.keys(), 4, 1);
    client.set_recorder(&recorder);
    workload::LoadGenerator load(cluster.simulator(),
                                 std::vector<workload::ClientEndpoint*>{&client},
                                 workload::LoadSpec::constant(2000.0, seconds(1.5), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.0));

    EXPECT_GE(recorder.metrics().counter_sum("rbft.instance_changes_done"), 3u);  // 3 correct nodes
    std::uint64_t below_delta = 0, votes = 0, changes = 0;
    for (const TraceEvent& e : recorder.trace().snapshot()) {
        if (e.type == EventType::kMonitorVerdict && e.b != kVerdictOk) ++below_delta;
        if (e.type == EventType::kInstanceChangeVote) ++votes;
        if (e.type == EventType::kInstanceChangeDone) ++changes;
    }
    EXPECT_GT(below_delta, 0u);
    EXPECT_GE(votes, 3u);
    EXPECT_GE(changes, 3u);
}

}  // namespace
}  // namespace rbft::obs
