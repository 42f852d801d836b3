// Message-pool property tests (src/net/pool.hpp): randomized
// acquire/release interleavings against the pool's accounting invariants,
// LIFO slot recycling, debug poison-fill, the AddressSanitizer report on a
// read of a released slot, oversize fallback, and the
// messages-outlive-the-pool lifetime guarantee.  The byte-identity of
// pooled vs unpooled simulation runs is asserted separately by the
// equivalence rig (test_equivalence.cpp).
#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "net/pool.hpp"

namespace rbft::net {
namespace {

/// Fixed-size pooled payload so every allocation lands in one size class.
struct Slab {
    std::uint64_t tag = 0;
    std::array<std::uint8_t, 96> bytes{};
};

TEST(MessagePool, ReusesReleasedSlotsLifo) {
    MessagePool pool;
    auto a = pool.make<Slab>();
    const void* slot_a = a.get();
    a.reset();  // final release: slot goes onto the free list
    ASSERT_EQ(pool.free_slots(), 1u);

    auto b = pool.make<Slab>();
    EXPECT_EQ(static_cast<const void*>(b.get()), slot_a)
        << "LIFO recycling must hand the most recently released slot back";
    EXPECT_EQ(pool.stats().reused, 1u);
    EXPECT_EQ(pool.free_slots(), 0u);
}

TEST(MessagePool, SteadyStateChurnTouchesTheHeapOnlyForChunks) {
    MessagePool pool;
    // Warm-up: one slot becomes resident.
    pool.make<Slab>().reset();
    const std::uint64_t chunks_after_warmup = pool.stats().chunk_allocs;

    for (int i = 0; i < 10'000; ++i) pool.make<Slab>().reset();

    // Every post-warm-up make() was served from the free list: no new
    // chunks, no oversize heap traffic.
    EXPECT_EQ(pool.stats().chunk_allocs, chunks_after_warmup);
    EXPECT_EQ(pool.stats().oversize_allocs, 0u);
    EXPECT_EQ(pool.stats().reused, 10'000u);
}

TEST(MessagePool, RandomizedAcquireReleaseNeverLeaksOrDoubleFreesSlots) {
    MessagePool pool;
    Rng rng(0xB0071E5);
    std::vector<std::shared_ptr<Slab>> live;
    std::size_t max_live = 0;

    for (int step = 0; step < 20'000; ++step) {
        if (live.empty() || rng.next_bool(0.55)) {
            auto m = pool.make<Slab>();
            m->tag = static_cast<std::uint64_t>(step);
            live.push_back(std::move(m));
            max_live = std::max(max_live, live.size());
        } else {
            // Release a random victim (not necessarily the newest), so the
            // free list sees out-of-order returns.
            const std::size_t victim = rng.next_below(live.size());
            std::swap(live[victim], live.back());
            live.pop_back();
        }
    }

    const PoolStats& s = pool.stats();
    // Conservation: every acquisition was fresh or reused, and every
    // release parked exactly one slot.
    EXPECT_EQ(s.oversize_allocs, 0u);
    const std::uint64_t fresh = s.acquired - s.reused;
    EXPECT_EQ(s.released + live.size(), s.acquired)
        << "every slot is live or was released exactly once";
    // Fresh slots are only minted when the free list is empty, so the
    // arena never holds more slots than the high-water mark of live ones.
    EXPECT_LE(fresh, max_live);
    EXPECT_EQ(pool.free_slots(), fresh - live.size());

    live.clear();
    EXPECT_EQ(pool.free_slots(), fresh) << "draining returns every slot";
}

TEST(MessagePool, RandomizedMessagesKeepTheirContentsWhileLive) {
    // Interleave pooled protocol messages with slab churn and verify no
    // live message is corrupted by recycling of neighbors.
    MessagePool pool;
    Rng rng(0xC0FFEE);
    std::vector<std::shared_ptr<bft::RequestMsg>> live;

    for (int step = 0; step < 5'000; ++step) {
        if (live.empty() || rng.next_bool(0.6)) {
            auto m = pool.make<bft::RequestMsg>();
            m->client = ClientId{static_cast<std::uint32_t>(step)};
            m->rid = RequestId{static_cast<std::uint64_t>(step) * 7 + 1};
            live.push_back(std::move(m));
        } else {
            const std::size_t victim = rng.next_below(live.size());
            // The dying message's slot gets poisoned and reused; survivors
            // must be untouched.
            const auto probe = live[(victim + 1) % live.size()];
            const auto expect_rid = probe->rid;
            std::swap(live[victim], live.back());
            live.pop_back();
            ASSERT_EQ(probe->rid, expect_rid);
        }
    }
    for (const auto& m : live) {
        EXPECT_EQ(raw(m->rid), raw(m->client) * std::uint64_t{7} + 1);
    }
}

#ifndef NDEBUG
TEST(MessagePool, ReleasePoisonFillsTheSlotInDebugBuilds) {
    MessagePool pool;
    auto m = pool.make<Slab>();
    m->bytes.fill(0xAB);
    const auto* raw_slot = reinterpret_cast<const unsigned char*>(m.get());
    m.reset();
#ifdef __SANITIZE_ADDRESS__
    // The released slot is ASan-poisoned; lift that to look at its bytes.
    ASAN_UNPOISON_MEMORY_REGION(raw_slot, sizeof(Slab));
#endif
    // The slot memory is still owned by the pool's arena chunk; released
    // bytes must carry the 0xDD poison pattern so stale readers trip.
    for (std::size_t i = 0; i < sizeof(Slab); ++i) {
        ASSERT_EQ(raw_slot[i], 0xDD) << "offset " << i;
    }
}
#endif

#ifdef __SANITIZE_ADDRESS__
TEST(MessagePoolDeathTest, ReadOfAReleasedSlotIsAnAsanReport) {
    MessagePool pool;
    auto m = pool.make<Slab>();
    const volatile std::uint64_t* stale = &m->tag;  // outlives the reference count
    m.reset();
    EXPECT_DEATH((void)*stale, "use-after-poison");
    // The next make<T>() of the size class takes the slot back legitimately.
    auto again = pool.make<Slab>();
    EXPECT_EQ(&again->tag, const_cast<const std::uint64_t*>(stale));
    EXPECT_EQ(again->tag, 0u);
}
#endif

TEST(MessagePool, OversizeAllocationsBypassTheArena) {
    struct Huge {
        std::array<std::uint8_t, 8 * 1024> payload{};
    };
    MessagePool pool;
    const std::uint64_t chunks_before = pool.stats().chunk_allocs;
    pool.make<Huge>().reset();
    EXPECT_EQ(pool.stats().oversize_allocs, 1u);
    EXPECT_EQ(pool.stats().chunk_allocs, chunks_before) << "no arena chunk consumed";
    EXPECT_EQ(pool.free_slots(), 0u) << "oversize slots are never parked";
}

TEST(MessagePool, MessagesOutliveThePoolHandle) {
    std::shared_ptr<bft::RequestMsg> survivor;
    {
        MessagePool pool;
        survivor = pool.make<bft::RequestMsg>();
        survivor->rid = RequestId{77};
    }
    // The arena core is kept alive by the allocator embedded in the
    // control block; destroying the handle must not invalidate the slot.
    EXPECT_EQ(raw(survivor->rid), 77u);
    survivor.reset();  // final release after the pool handle died: no crash
}

TEST(MessagePool, MakeMsgFallsBackToPlainHeapWithoutAPool) {
    auto m = make_msg<bft::RequestMsg>(nullptr);
    ASSERT_NE(m, nullptr);
    m->rid = RequestId{5};
    EXPECT_EQ(raw(m->rid), 5u);

    MessagePool pool;
    auto pooled = make_msg<bft::RequestMsg>(&pool);
    ASSERT_NE(pooled, nullptr);
    EXPECT_EQ(pool.stats().acquired, 1u);
}

}  // namespace
}  // namespace rbft::net
