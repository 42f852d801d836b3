// Unit tests for the common substrate: ids/quorums, byte helpers, RNG,
// histogram, request-key sets, time arithmetic and windowed counters.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/det.hpp"
#include "common/histogram.hpp"
#include "common/logging.hpp"
#include "common/request_key_set.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/timeseries.hpp"
#include "common/types.hpp"

namespace rbft {
namespace {

// ---------------------------------------------------------------------------
// Types and quorums.

TEST(Types, ClusterSizeFormula) {
    EXPECT_EQ(cluster_size(1), 4u);
    EXPECT_EQ(cluster_size(2), 7u);
    EXPECT_EQ(cluster_size(3), 10u);
}

TEST(Types, MaxFaultsInvertsClusterSize) {
    for (std::uint32_t f = 1; f <= 10; ++f) {
        EXPECT_EQ(max_faults(cluster_size(f)), f);
    }
}

TEST(Types, MaxFaultsFloorsNonCanonicalSizes) {
    EXPECT_EQ(max_faults(4), 1u);
    EXPECT_EQ(max_faults(5), 1u);
    EXPECT_EQ(max_faults(6), 1u);
    EXPECT_EQ(max_faults(7), 2u);
}

class QuorumProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuorumProperty, CommitQuorumIsMajorityAndIntersects) {
    const std::uint32_t f = GetParam();
    const std::uint32_t n = cluster_size(f);
    // Any two commit quorums intersect in at least f+1 nodes (safety core).
    EXPECT_GE(2 * commit_quorum(f), n + f + 1);
    // A commit quorum is reachable with f nodes silent (liveness).
    EXPECT_LE(commit_quorum(f), n - f);
}

TEST_P(QuorumProperty, PropagateQuorumGuaranteesOneCorrectNode) {
    const std::uint32_t f = GetParam();
    EXPECT_EQ(propagate_quorum(f), f + 1);  // at least one correct node in any f+1
}

TEST_P(QuorumProperty, PrepareQuorumBelowCommitQuorum) {
    const std::uint32_t f = GetParam();
    EXPECT_LT(prepare_quorum(f), commit_quorum(f));
}

INSTANTIATE_TEST_SUITE_P(FaultRange, QuorumProperty, ::testing::Values(1u, 2u, 3u, 5u, 10u));

TEST(Types, NextIncrements) {
    EXPECT_EQ(raw(next(SeqNum{41})), 42u);
    EXPECT_EQ(raw(next(ViewId{0})), 1u);
    EXPECT_EQ(raw(next(RequestId{7})), 8u);
}

TEST(Types, DigestHexRendering) {
    Digest d;
    d.bytes[0] = 0xAB;
    d.bytes[31] = 0x01;
    const std::string hex = d.hex();
    EXPECT_EQ(hex.size(), 64u);
    EXPECT_EQ(hex.substr(0, 2), "ab");
    EXPECT_EQ(hex.substr(62, 2), "01");
}

TEST(Types, RequestKeyOrdering) {
    const RequestKey a{ClientId{1}, RequestId{1}};
    const RequestKey b{ClientId{1}, RequestId{2}};
    const RequestKey c{ClientId{2}, RequestId{1}};
    EXPECT_LT(a, b);
    EXPECT_LT(a, c);
    EXPECT_EQ(a, (RequestKey{ClientId{1}, RequestId{1}}));
}

// ---------------------------------------------------------------------------
// Bytes.

TEST(Bytes, HexRoundTrip) {
    const Bytes data = {0x00, 0x01, 0xFF, 0x7f, 0x80};
    EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(Bytes, FromHexRejectsOddLength) { EXPECT_TRUE(from_hex("abc").empty()); }

TEST(Bytes, FromHexRejectsNonHex) { EXPECT_TRUE(from_hex("zz").empty()); }

TEST(Bytes, FromHexAcceptsUppercase) {
    EXPECT_EQ(from_hex("FF00"), (Bytes{0xFF, 0x00}));
}

TEST(Bytes, StringRoundTrip) {
    const std::string s = "hello world";
    EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, EmptyRoundTrip) {
    EXPECT_TRUE(to_bytes("").empty());
    EXPECT_EQ(to_hex({}), "");
}

// ---------------------------------------------------------------------------
// RNG.

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowZeroIsZero) {
    Rng rng(7);
    EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, DoubleRoughlyUniform) {
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsUncorrelated) {
    Rng parent(42);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------------
// Histogram / summary.

TEST(Summary, TracksMeanMinMaxCount) {
    Summary s;
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Summary, EmptyIsZero) {
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, ResetClears) {
    Summary s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(LatencyHistogram, MedianOfUniformSamples) {
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i) h.add(i * 0.001);  // 1ms .. 1s
    const double p50 = h.quantile(0.5);
    EXPECT_NEAR(p50, 0.5, 0.05);
}

TEST(LatencyHistogram, QuantilesMonotone) {
    LatencyHistogram h;
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) h.add(1e-4 + rng.next_double() * 0.01);
    double prev = 0.0;
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(LatencyHistogram, SingleValueQuantile) {
    LatencyHistogram h;
    h.add(0.005);
    EXPECT_NEAR(h.quantile(0.5), 0.005, 0.001);
    EXPECT_NEAR(h.quantile(0.99), 0.005, 0.001);
}

TEST(LatencyHistogram, EmptyQuantileIsZero) {
    LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// RequestKeySet: per-client watermarks with exact set semantics.

TEST(RequestKeySet, InOrderRidsCollapseIntoTheFloor) {
    RequestKeySet set;
    for (std::uint64_t rid = 1; rid <= 1000; ++rid) {
        EXPECT_TRUE(set.insert({ClientId{3}, RequestId{rid}}));
    }
    EXPECT_EQ(set.size(), 1000u);
    EXPECT_EQ(set.tail_size(), 0u);
    EXPECT_TRUE(set.contains({ClientId{3}, RequestId{1000}}));
    EXPECT_FALSE(set.contains({ClientId{3}, RequestId{1001}}));
    EXPECT_FALSE(set.contains({ClientId{3}, RequestId{0}}));
    EXPECT_FALSE(set.contains({ClientId{4}, RequestId{1}}));
}

TEST(RequestKeySet, TailDrainsWhenTheGapFills) {
    RequestKeySet set;
    const ClientId c{1};
    for (std::uint64_t rid : {3u, 5u, 4u, 0u}) EXPECT_TRUE(set.insert({c, RequestId{rid}}));
    EXPECT_EQ(set.tail_size(), 4u);
    EXPECT_FALSE(set.insert({c, RequestId{4}}));
    EXPECT_FALSE(set.contains({c, RequestId{2}}));
    EXPECT_TRUE(set.insert({c, RequestId{1}}));
    EXPECT_TRUE(set.insert({c, RequestId{2}}));
    EXPECT_EQ(set.size(), 6u);
    EXPECT_EQ(set.tail_size(), 1u);  // rid 0 is never covered by a floor
    EXPECT_TRUE(set.contains({c, RequestId{0}}));
    EXPECT_TRUE(set.contains({c, RequestId{5}}));
    EXPECT_FALSE(set.contains({c, RequestId{6}}));
}

TEST(RequestKeySet, LargestRidDoesNotWrapTheFloor) {
    RequestKeySet set;
    const ClientId c{0};
    const std::uint64_t max = ~std::uint64_t{0};
    EXPECT_TRUE(set.insert({c, RequestId{max}}));
    EXPECT_TRUE(set.contains({c, RequestId{max}}));
    EXPECT_FALSE(set.contains({c, RequestId{1}}));
    EXPECT_FALSE(set.contains({c, RequestId{max - 1}}));
}

TEST(RequestKeySet, MatchesOrderedSetOnRandomizedWorkloads) {
    // Differential test against the tree it replaces: several clients, each
    // advancing a request cursor with reordering, duplicates, rid 0,
    // permanent gaps and occasional clear().  Every insert result, every
    // size and every membership probe must match the reference.
    constexpr std::uint32_t kClients = 5;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        RequestKeySet set;
        det::set<RequestKey> ref;
        std::vector<std::uint64_t> cursor(kClients, 1);
        const auto probe = [&](const RequestKey& k) {
            ASSERT_EQ(set.contains(k), ref.contains(k))
                << "seed " << seed << " client " << raw(k.client) << " rid " << raw(k.rid);
        };
        for (int op = 0; op < 4000; ++op) {
            const ClientId c{static_cast<std::uint32_t>(rng.next_below(kClients))};
            std::uint64_t& cur = cursor[raw(c)];
            std::uint64_t rid = 0;
            const std::uint64_t kind = rng.next_below(100);
            if (kind < 55) {
                rid = cur++;                        // in order
            } else if (kind < 70) {
                rid = cur + 1 + rng.next_below(6);  // early arrival
            } else if (kind < 80) {
                rid = 1 + rng.next_below(cur + 8);  // duplicate or late fill
            } else if (kind < 85) {
                rid = 0;
            } else if (kind < 95) {
                cur += 1 + rng.next_below(3);       // a gap that may never fill
                continue;
            } else if (kind < 99) {
                rid = cur + rng.next_below(40);
            } else {
                set.clear();
                ref.clear();
                continue;
            }
            const RequestKey key{c, RequestId{rid}};
            ASSERT_EQ(set.insert(key), ref.insert(key).second) << "seed " << seed;
            ASSERT_EQ(set.size(), ref.size()) << "seed " << seed;
            ASSERT_LE(set.tail_size(), set.size());
            probe(key);
            probe({c, RequestId{rng.next_below(cur + 50)}});
        }
        for (std::uint32_t c = 0; c < kClients + 1; ++c) {
            const std::uint64_t top = c < kClients ? cursor[c] + 50 : 50;
            for (std::uint64_t rid = 0; rid <= top; ++rid) probe({ClientId{c}, RequestId{rid}});
        }
    }
}

// ---------------------------------------------------------------------------
// Time.

TEST(Time, DurationArithmetic) {
    EXPECT_EQ((milliseconds(1.0) + microseconds(500.0)).ns, 1'500'000);
    EXPECT_EQ((seconds(1.0) - milliseconds(250.0)).ns, 750'000'000);
    EXPECT_EQ((milliseconds(2.0) * std::int64_t{3}).ns, 6'000'000);
    EXPECT_EQ((milliseconds(3.0) / std::int64_t{3}).ns, 1'000'000);
}

TEST(Time, DurationScalingByDouble) {
    EXPECT_EQ((seconds(1.0) * 0.5).ns, 500'000'000);
}

TEST(Time, TimePointDifference) {
    const TimePoint a{1'000'000};
    const TimePoint b = a + milliseconds(2.0);
    EXPECT_EQ((b - a).ns, 2'000'000);
    EXPECT_LT(a, b);
}

TEST(Time, UnitConversions) {
    EXPECT_DOUBLE_EQ(seconds(1.5).seconds(), 1.5);
    EXPECT_DOUBLE_EQ(milliseconds(2.5).millis(), 2.5);
    EXPECT_DOUBLE_EQ(microseconds(10.0).micros(), 10.0);
}

// ---------------------------------------------------------------------------
// Windowed counters and series.

TEST(WindowCounter, TakeResetsValue) {
    WindowCounter c;
    c.add(5);
    c.add(3);
    EXPECT_EQ(c.peek(), 8u);
    EXPECT_EQ(c.take(), 8u);
    EXPECT_EQ(c.take(), 0u);
}

TEST(Series, MeanAndMax) {
    Series s;
    s.add(0.0, 1.0);
    s.add(1.0, 3.0);
    s.add(2.0, 2.0);
    EXPECT_DOUBLE_EQ(s.mean_y(), 2.0);
    EXPECT_DOUBLE_EQ(s.max_y(), 3.0);
    EXPECT_EQ(s.size(), 3u);
}

TEST(Series, EmptyIsZero) {
    Series s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean_y(), 0.0);
    EXPECT_EQ(s.max_y(), 0.0);
}

TEST(Logging, OffIsNeverEnabled) {
    Logger logger;  // instance-confined: each run owns its logger
    EXPECT_EQ(logger.level(), LogLevel::kOff);  // silent by default
    EXPECT_FALSE(logger.enabled(LogLevel::kError));
    EXPECT_FALSE(logger.enabled(LogLevel::kOff));  // kOff is a threshold, not a level
    logger.set_level(LogLevel::kInfo);
    EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
    EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
    EXPECT_FALSE(logger.enabled(LogLevel::kOff));  // logging *at* kOff stays discarded
}

TEST(Logging, SinkCapturesOutput) {
    Logger logger;
    logger.set_level(LogLevel::kInfo);
    std::vector<std::string> captured;
    logger.set_sink([&](LogLevel, std::string_view component, std::string_view message) {
        captured.push_back(std::string(component) + ": " + std::string(message));
    });
    log_info(&logger, "net", "hello");
    log_debug(&logger, "net", "filtered");  // below threshold: not delivered
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "net: hello");
}

TEST(Logging, NullLoggerIsSafe) {
    log_info(nullptr, "net", "dropped");  // null logger = logging disabled
    log_warn(nullptr, "net", "dropped");
}

TEST(Logging, TwoLoggersAreIndependent) {
    Logger a;
    Logger b;
    a.set_level(LogLevel::kInfo);
    std::vector<std::string> captured_a;
    a.set_sink([&](LogLevel, std::string_view, std::string_view message) {
        captured_a.emplace_back(message);
    });
    log_info(&a, "x", "to-a");
    log_info(&b, "x", "to-b");  // b is still kOff and has no sink
    ASSERT_EQ(captured_a.size(), 1u);
    EXPECT_EQ(captured_a[0], "to-a");
}

}  // namespace
}  // namespace rbft
