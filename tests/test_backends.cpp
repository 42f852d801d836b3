// Oracle tests for the two execution backends (src/bft/execution.hpp).
//
// Three layers:
//
//  1. MergeOracle — drives bft::DeterministicMerge directly with
//     randomized per-instance permutations of a shared request universe and
//     asserts the two properties the merged backend's correctness argument
//     rests on: the emitted stream is duplicate-free and covers every
//     request exactly once, and the emission order is a pure function of
//     the per-instance committed sequences — any interleaving of push() and
//     drain() calls (the real system's arbitrary local commit timing)
//     yields the identical stream.
//
//  2. BackendConformance / BackendSweep — full-cluster differential runs
//     via check::run_conformance: master-only RBFT and merged execution
//     must complete the same closed-loop request set, fault-free and under
//     the two attack knobs (equivocating master pre-prepares, degraded
//     master primary).  The 20-seed sweep carries the tier-2 label.
//
//  3. Backends — the merged backend's performance claim as behaviour: past
//     the master-only knee it still completes the offered load, without
//     an instance change.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bft/execution.hpp"
#include "bft/messages.hpp"
#include "check/conformance.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "exp/runners.hpp"

namespace rbft {
namespace {

using bft::DeterministicMerge;

// ---------------------------------------------------------------------------
// MergeOracle

bft::RequestRef make_ref(std::uint32_t i) {
    bft::RequestRef ref;
    ref.client = ClientId{i % 5};
    ref.rid = RequestId{i};
    ref.digest.bytes[0] = static_cast<std::uint8_t>(i);
    ref.digest.bytes[1] = static_cast<std::uint8_t>(i >> 8);
    ref.payload_bytes = 8;
    return ref;
}

/// One permutation of [0, universe) per instance, derived from `rng`.
std::vector<std::vector<bft::RequestRef>> make_streams(std::uint32_t width,
                                                       std::uint32_t universe, Rng& rng) {
    std::vector<std::vector<bft::RequestRef>> streams(width);
    for (auto& stream : streams) {
        stream.reserve(universe);
        for (std::uint32_t i = 0; i < universe; ++i) stream.push_back(make_ref(i));
        // Fisher-Yates with the repo Rng keeps the fixture reproducible.
        for (std::uint32_t i = universe; i > 1; --i) {
            const auto j = static_cast<std::uint32_t>(rng.next_below(i));
            std::swap(stream[i - 1], stream[j]);
        }
    }
    return streams;
}

std::vector<bft::RequestRef> drain_all(DeterministicMerge& merge) {
    std::vector<bft::RequestRef> out;
    merge.drain([&out](const bft::RequestRef& ref) { out.push_back(ref); });
    return out;
}

/// Reference emission: push every stream in full, then drain once.
std::vector<bft::RequestRef> reference_order(
    const std::vector<std::vector<bft::RequestRef>>& streams) {
    DeterministicMerge merge(static_cast<std::uint32_t>(streams.size()));
    for (std::uint32_t inst = 0; inst < streams.size(); ++inst) {
        for (const auto& ref : streams[inst]) merge.push(inst, ref);
    }
    return drain_all(merge);
}

/// Feeds the same streams through a random interleaving of per-instance
/// pushes, draining at random points along the way.
std::vector<bft::RequestRef> interleaved_order(
    const std::vector<std::vector<bft::RequestRef>>& streams, Rng& rng) {
    const auto width = static_cast<std::uint32_t>(streams.size());
    DeterministicMerge merge(width);
    std::vector<std::size_t> next(width, 0);
    std::vector<bft::RequestRef> out;
    auto drain_into = [&merge, &out] {
        merge.drain([&out](const bft::RequestRef& ref) { out.push_back(ref); });
    };
    std::size_t remaining = 0;
    for (const auto& stream : streams) remaining += stream.size();
    while (remaining > 0) {
        const auto inst = static_cast<std::uint32_t>(rng.next_below(width));
        if (next[inst] == streams[inst].size()) continue;
        merge.push(inst, streams[inst][next[inst]++]);
        --remaining;
        if (rng.next_bool(0.4)) drain_into();
    }
    drain_into();
    return out;
}

void expect_exactly_once(const std::vector<bft::RequestRef>& emitted, std::uint32_t universe,
                         const char* label) {
    ASSERT_EQ(emitted.size(), universe) << label;
    std::vector<bool> seen(universe, false);
    for (const auto& ref : emitted) {
        const auto i = static_cast<std::uint32_t>(raw(ref.rid));
        ASSERT_LT(i, universe) << label;
        EXPECT_FALSE(seen[i]) << label << ": request " << i << " emitted twice";
        seen[i] = true;
    }
}

TEST(MergeOracle, EmitsEveryRequestExactlyOnce) {
    for (const std::uint32_t width : {2u, 3u}) {
        Rng rng(0x5EEDu + width);
        const auto streams = make_streams(width, 48, rng);
        const auto emitted = reference_order(streams);
        expect_exactly_once(emitted, 48, width == 2 ? "width 2" : "width 3");
    }
}

TEST(MergeOracle, EmissionOrderIsPermutationStable) {
    for (const std::uint32_t width : {2u, 3u}) {
        Rng stream_rng(0xA11CEu * width);
        const auto streams = make_streams(width, 40, stream_rng);
        const auto reference = reference_order(streams);
        expect_exactly_once(reference, 40, "reference");
        for (std::uint32_t trial = 0; trial < 50; ++trial) {
            Rng rng(0xBEEFu + 1000 * width + trial);
            const auto emitted = interleaved_order(streams, rng);
            ASSERT_EQ(emitted, reference)
                << "width " << width << " trial " << trial
                << ": merge order depends on push/drain interleaving";
        }
    }
}

TEST(MergeOracle, RoundRobinAlternatesAcrossDisjointStreams) {
    // With no duplicates between streams, the merge is exactly round-robin:
    // a0 b0 a1 b1 ...  (distinct rids so nothing is suppressed).
    DeterministicMerge merge(2);
    for (std::uint32_t i = 0; i < 4; ++i) merge.push(0, make_ref(i));
    for (std::uint32_t i = 0; i < 4; ++i) merge.push(1, make_ref(100 + i));
    const auto emitted = drain_all(merge);
    ASSERT_EQ(emitted.size(), 8u);
    const std::uint64_t expected[] = {0, 100, 1, 101, 2, 102, 3, 103};
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        EXPECT_EQ(raw(emitted[i].rid), expected[i]) << "position " << i;
    }
    EXPECT_EQ(merge.emitted_count(), 8u);
}

TEST(MergeOracle, DuplicateSuppressionDoesNotConsumeTheTurn) {
    // Stream 1 leads with a request stream 0 already emitted; it is spent
    // and stream 1's turn falls through to its first fresh request.
    DeterministicMerge merge(2);
    merge.push(0, make_ref(0));
    merge.push(0, make_ref(2));
    merge.push(1, make_ref(0));
    merge.push(1, make_ref(1));
    const auto emitted = drain_all(merge);
    ASSERT_EQ(emitted.size(), 3u);
    EXPECT_EQ(raw(emitted[0].rid), 0u);
    EXPECT_EQ(raw(emitted[1].rid), 1u);  // stream 1's 0 was spent, same turn emits 1
    EXPECT_EQ(raw(emitted[2].rid), 2u);
    EXPECT_EQ(merge.emitted_count(), 3u);
}

// ---------------------------------------------------------------------------
// BackendConformance (tier-1 smoke)

check::ConformanceScenario backend_scenario(std::uint64_t seed) {
    check::ConformanceScenario s;
    s.seed = seed;
    s.contenders = {"rbft", "rbft-merged"};
    return s;
}

void expect_conformant(const check::ConformanceScenario& scenario, const char* label) {
    const check::ConformanceResult result = check::run_conformance(scenario);
    ASSERT_EQ(result.runs.size(), 2u) << label;
    for (const auto& run : result.runs) {
        EXPECT_TRUE(run.all_completed)
            << label << ": " << run.protocol << " completed " << run.completed << " of "
            << scenario.clients * scenario.requests_per_client;
    }
    EXPECT_TRUE(result.sets_match) << label << ": executed request sets diverged";
}

TEST(BackendConformance, FaultFreeBackendsMatchMasterOnly) {
    expect_conformant(backend_scenario(11), "fault-free");
}

TEST(BackendConformance, MasterDegradationAttack) {
    // A slow master gets caught by monitoring and replaced while batches
    // are in flight; the merge must carry on across the instance change.
    check::ConformanceScenario s = backend_scenario(12);
    s.master_degradation = true;
    expect_conformant(s, "master degradation");
}

TEST(BackendConformance, EquivocatingMasterPrePrepares) {
    // Equivocation with honest quorums: the variant pre-prepare cannot
    // gather a commit quorum, so the masked node stalls locally and catches
    // up; every backend still completes the identical request set.
    check::ConformanceScenario s = backend_scenario(13);
    s.equivocate_mask = 1ull << 1;
    expect_conformant(s, "equivocating master");
}

// ---------------------------------------------------------------------------
// Backends

TEST(Backends, MergedKeepsUpPastTheMasterOnlyKnee) {
    // The Fig. 7 workload at 160% of calibrated master-only capacity.
    // Merged execution shards verification across merge_width(f) lanes and
    // consumes every committed order, so it must still complete what is
    // offered.  Master-only saturates its single lane here (its completed
    // rate stays near capacity and monitoring votes instance changes), so
    // this scenario fails under master-only by design.
    const double capacity = exp::capacity(exp::Protocol::kRbftTcp, 8);
    exp::RbftScenario s;
    s.backend = bft::ExecutionBackend::kMerged;
    s.payload_bytes = 8;
    s.rate = 1.6 * 0.95 * capacity;
    s.warmup = seconds(0.3);
    s.measure = seconds(0.5);
    const exp::ScenarioOutput out = exp::run_rbft(s);

    const double offered_kreq_s = s.rate / 1000.0;
    std::printf("%s @160%%: %.2f of %.2f kreq/s offered (%.1f%%), %.1f%% of capacity, "
                "%llu instance change(s)\n",
                bft::backend_name(s.backend), out.result.kreq_s, offered_kreq_s, 100.0 * out.result.kreq_s / offered_kreq_s,
                100.0 * out.result.kreq_s * 1000.0 / capacity,
                static_cast<unsigned long long>(out.instance_changes));
    EXPECT_GE(out.result.kreq_s, 0.95 * offered_kreq_s);
    EXPECT_GE(out.result.kreq_s * 1000.0, 1.4 * capacity);
    EXPECT_EQ(out.instance_changes, 0u);
}

}  // namespace
}  // namespace rbft

// ---------------------------------------------------------------------------
// Tier-2: 20-seed sweep across the attack grid.

namespace rbft {
namespace {

TEST(BackendSweep, TwentySeedsAcrossAttackGrid) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        check::ConformanceScenario s = backend_scenario(seed);
        std::string label = "seed " + std::to_string(seed);
        switch (seed % 3) {
            case 1:
                s.master_degradation = true;
                label += " (master degradation)";
                break;
            case 2:
                s.equivocate_mask = 1ull << (1 + seed % 3);
                label += " (equivocation)";
                break;
            default:
                label += " (fault-free)";
                break;
        }
        expect_conformant(s, label.c_str());
    }
}

}  // namespace
}  // namespace rbft
