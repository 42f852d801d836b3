// Allocation-budget regression tests for the zero-copy wire path.
//
// Before the hot-path overhaul, every signed client request materialized a
// scratch buffer (one heap allocation plus a full payload copy) just to
// hash it, and every encode into a fresh WireWriter paid the same again.
// After it, signing streams fields straight into the SHA-256 sink — so the
// budget below is deliberately zero.  Any change that reintroduces
// per-request buffer churn (a stray owned WireWriter on the signing path)
// trips these immediately.
//
// wire.bytes_copied / wire.allocs count buffer *churn* only (growth
// relocations and extraction copies), not serialization work — see
// net/wire.hpp (WireStats).
//
// The same fig7 slice also gates per-request work (events, messages,
// bytes, MACs, digests, signatures and engine calls per completed request)
// and per-request protocol state: once the run drains, no node may still
// hold a request body, and the request table and the watermark key sets
// may hold individual entries only for requests still outstanding.  Wall
// time per request is reported by perfbench (perfbench/run.py), not gated
// here.  A second slice at 160% of capacity gates the work past the knee,
// where PRE-PREPAREs wait for their requests to clear.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "bft/messages.hpp"
#include "exp/runners.hpp"
#include "net/wire.hpp"
#include "obs/recorder.hpp"

namespace rbft::exp {
namespace {

/// Checked-in budget table for the fig7-slice run below.  Zero is the
/// steady-state contract, not an aspiration: the signing path streams and
/// never owns a buffer.
struct Budget {
    const char* counter;
    std::uint64_t max;
};
constexpr Budget kFig7WireBudget[] = {
    {"wire.bytes_copied", 0},
    {"wire.allocs", 0},
};

/// Per-completed-request work ceilings for the same slice, each set at most
/// 1% above its measured value.  Deterministic counters, so the ceilings
/// hold on any host: a change that adds events, messages, bytes, MACs,
/// digests, signatures or engine calls per request trips them.  Lower a
/// ceiling when a change legitimately removes work.  An entry starting with
/// ';' is a zone-path suffix whose call counts are summed over every caller
/// path (the simulator dispatch chain above it varies).
struct PerRequestBudget {
    std::string_view quantity;
    double max_per_request;
};
constexpr PerRequestBudget kFig7WorkBudget[] = {
    {"sim.events_dispatched", 78.5},              // measured 77.78
    {"net.messages_sent", 21.75},                 // 21.57
    {"net.bytes_sent", 6580.0},                   // 6518.9
    {"crypto.macs_computed", 22.3},               // 22.09
    {"crypto.digests_computed", 1.075},           // 1.065
    {"crypto.sigs_computed", 1.01},               // 1.000
    {";rbft.on_message;bft.on_message", 1.585},   // 1.570
};

/// Ceilings for the 160% slice, each at most 1% above its measured value.
/// A PRE-PREPARE held for a request it lacks is offered again only when
/// that request clears, so offers stay near one per accepted PRE-PREPARE.
/// Offering every held one again on every submit and delivery read 12.7
/// here (and 188 on perfbench's 5 s fig7-overload).
constexpr PerRequestBudget kOverloadWorkBudget[] = {
    {"bft.preprepares_offered", 1.43},  // per accepted PRE-PREPARE; measured 1.418
    {"sim.events_dispatched", 81.2},    // per completed request; measured 80.48
};

/// Fault-free f=1 static load, fixed seed, profiling on (the profiler is
/// where the wire churn and work counters land).  `rate` 0 saturates.
ScenarioOutput run_fig7_slice(double rate = 0.0) {
    RbftScenario scenario;
    scenario.seed = 7;
    scenario.clients = 10;
    scenario.rate = rate;
    scenario.warmup = milliseconds(300.0);
    scenario.measure = milliseconds(700.0);
    scenario.recorder = std::make_shared<obs::Recorder>();
    scenario.recorder->enable_profiling();
    return run_rbft(scenario);
}

TEST(AllocBudget, Fig7SliceStaysWithinWireChurnBudget) {
    const ScenarioOutput out = run_fig7_slice();
    const obs::prof::Profiler& profiler = *out.recorder->profiler();

    ASSERT_GT(out.result.kreq_s, 0.0) << "run made no progress; budget check is vacuous";
    ASSERT_GT(profiler.counter_sum("net.bytes_sent"), 0u);

    for (const Budget& b : kFig7WireBudget) {
        EXPECT_LE(profiler.counter_sum(b.counter), b.max)
            << b.counter << " exceeded its checked-in budget";
    }
}

/// A profiler counter's total, or for a ';'-prefixed quantity the calls of
/// every zone whose path ends with it.
std::uint64_t work_total(const obs::prof::Profiler& profiler, std::string_view quantity) {
    if (!quantity.starts_with(';')) return profiler.counter_sum(quantity);
    std::uint64_t calls = 0;
    for (const auto& [path, agg] : profiler.zones_by_path()) {
        if (path.ends_with(quantity)) calls += agg.calls;
    }
    return calls;
}

TEST(AllocBudget, Fig7SliceStaysWithinPerRequestWorkBudget) {
    const ScenarioOutput out = run_fig7_slice();
    const obs::prof::Profiler& profiler = *out.recorder->profiler();
    const std::uint64_t completed = out.recorder->metrics().counter_sum("client.completed");
    ASSERT_GT(completed, 0u) << "run completed nothing; budget check is vacuous";
    std::printf("fig7 slice: %llu requests completed\n",
                static_cast<unsigned long long>(completed));

    for (const PerRequestBudget& b : kFig7WorkBudget) {
        const std::uint64_t total = work_total(profiler, b.quantity);
        ASSERT_GT(total, 0u) << b.quantity << " never counted; budget check is vacuous";
        const double per_request = static_cast<double>(total) / static_cast<double>(completed);
        std::printf("  %-34s %10.4f per request (ceiling %.4f)\n",
                    std::string(b.quantity).c_str(), per_request, b.max_per_request);
        EXPECT_LE(per_request, b.max_per_request)
            << b.quantity << " exceeded its per-request budget";
    }
}

TEST(AllocBudget, OverloadSliceOffersEachPrePrepareOnlyWhenItCanProgress) {
    const ScenarioOutput out =
        run_fig7_slice(1.6 * 0.95 * capacity(Protocol::kRbftTcp, 8));
    const obs::prof::Profiler& profiler = *out.recorder->profiler();
    const obs::MetricsRegistry& metrics = out.recorder->metrics();
    const double per[] = {static_cast<double>(metrics.counter_sum("bft.preprepares_accepted")),
                          static_cast<double>(metrics.counter_sum("client.completed"))};
    for (std::size_t i = 0; i < std::size(kOverloadWorkBudget); ++i) {
        const PerRequestBudget& b = kOverloadWorkBudget[i];
        const std::uint64_t total = profiler.counter_sum(b.quantity);
        ASSERT_GT(total, 0u) << b.quantity << " never counted; budget check is vacuous";
        ASSERT_GT(per[i], 0.0) << "run made no progress; budget check is vacuous";
        const double ratio = static_cast<double>(total) / per[i];
        std::printf("  %-34s %10.4f (ceiling %.4f)\n", std::string(b.quantity).c_str(), ratio,
                    b.max_per_request);
        EXPECT_LE(ratio, b.max_per_request) << b.quantity << " exceeded its budget";
    }
}

TEST(AllocBudget, Fig7SliceReleasesPerRequestStateOnceDrained) {
    // run_rbft keeps simulating after the load stops, so by the end every
    // request the clients got through has been executed everywhere.  A
    // node must then hold no request body, and its request table and each
    // grow-only key set may keep individual entries only for requests
    // still outstanding, and no instance may still hold a PRE-PREPARE.
    const ScenarioOutput out = run_fig7_slice();
    ASSERT_GT(out.result.kreq_s, 0.0);
    ASSERT_EQ(out.node_state.size(), 4u);
    for (std::size_t i = 0; i < out.node_state.size(); ++i) {
        const core::StateSizes& st = out.node_state[i];
        EXPECT_LE(st.requests, out.requests_outstanding) << "node " << i;
        EXPECT_EQ(st.retained_bodies, 0u) << "node " << i;
        EXPECT_LE(st.executed_tail, out.requests_outstanding) << "node " << i;
        ASSERT_EQ(st.ordered_tail.size(), 2u) << "node " << i;
        for (std::size_t inst = 0; inst < st.ordered_tail.size(); ++inst) {
            EXPECT_LE(st.ordered_tail[inst], out.requests_outstanding)
                << "node " << i << " instance " << inst;
            EXPECT_EQ(st.held_preprepares.at(inst), 0u) << "node " << i << " instance " << inst;
        }
    }
}

TEST(AllocBudget, DecodeChurnIsExactlyThePayloadExtraction) {
    bft::RequestMsg m;
    m.payload.assign(512, 0x17);
    net::WireWriter w;
    m.encode(w);

    // Scalar parses are free.  The only churn a decode may report is the
    // one honest physical copy that hands the message its owned payload:
    // exactly one allocation of exactly payload-size bytes.  Anything more
    // means a hidden intermediate buffer crept back into the read path.
    for (int i = 0; i < 100; ++i) {
        net::WireReader r(BytesView(w.buffer()));
        const bft::RequestMsg back = bft::RequestMsg::decode(r);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(back.payload.size(), m.payload.size());
        const net::WireStats s = r.stats();
        ASSERT_EQ(s.allocs, 1u);
        ASSERT_EQ(s.bytes_copied, m.payload.size());
    }
}

}  // namespace
}  // namespace rbft::exp
