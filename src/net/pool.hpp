// Free-list message pool: arena-backed recycling of protocol-message
// allocations.
//
// Every in-simulator message travels as a shared_ptr<const Message>.  With
// plain make_shared each message costs one combined control-block+object
// heap allocation at build time and one deallocation when the last
// reference dies — the dominant allocator traffic on the hot path (one
// REQUEST fans out into PROPAGATE and per-instance ordering messages).
//
// MessagePool::make<T>() is a drop-in replacement: allocate_shared with an
// arena allocator, so the control block and the message live in one pooled
// slot.  On final release the slot goes onto a per-size free list instead
// of back to the heap; the next make<T>() of the same size class reuses it.
// Slots are carved from bump-allocated arena chunks, so a steady-state run
// touches the system allocator only when the live-message high-water mark
// grows.
//
// Invariants (DESIGN.md "Message pool"):
//  * A slot is on exactly one of {free list, live} at any time.  Release
//    runs the message destructor (via shared_ptr machinery) but retains the
//    slot; in debug builds the slot is poison-filled (0xDD) so stale reads
//    crash loudly instead of aliasing the next message, and under
//    AddressSanitizer it is poisoned until its next make<T>(), so any access
//    to a released slot is reported as a use-after-poison.
//  * The pool core is owned jointly by the pool handle and by every
//    allocator copy embedded in outstanding control blocks — messages may
//    outlive the MessagePool object itself (e.g. a scenario tears down its
//    cluster while a test still holds a reply).
//  * Recycling is LIFO per size class: allocation order is a pure function
//    of the run's message history, keeping runs deterministic.
//  * Pool statistics are internal observability only — they are never
//    exported into metrics/trace/profile JSON, so pooled and unpooled runs
//    of the same scenario stay byte-identical (the equivalence rig asserts
//    this).
//  * A pool is confined to one simulation instance/thread, like the
//    Simulator that drives it.  exp::parallel gives each lane its own pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace rbft::net {

/// Internal-only pool accounting (see invariants above: never exported).
struct PoolStats {
    std::uint64_t acquired = 0;       // slots handed out (fresh + reused)
    std::uint64_t reused = 0;         // hand-outs served from a free list
    std::uint64_t released = 0;       // slots returned to a free list
    std::uint64_t chunk_allocs = 0;   // arena chunks requested from the heap
    std::uint64_t oversize_allocs = 0;  // slots too big for the arena (heap)
    std::uint64_t bytes_reserved = 0;   // total arena bytes owned
};

class MessagePool {
public:
    MessagePool() : core_(std::make_shared<Core>()) {}

    MessagePool(const MessagePool&) = delete;
    MessagePool& operator=(const MessagePool&) = delete;

    /// Pool-backed make_shared.  The returned pointer is an ordinary
    /// shared_ptr; on final release the slot is recycled into this pool.
    template <typename T, typename... Args>
    [[nodiscard]] std::shared_ptr<T> make(Args&&... args) {
        return std::allocate_shared<T>(Alloc<T>{core_}, std::forward<Args>(args)...);
    }

    [[nodiscard]] const PoolStats& stats() const noexcept { return core_->stats; }

    /// Slots currently parked on free lists (for tests: acquire/release
    /// cycles must neither leak slots nor double-free them).
    [[nodiscard]] std::size_t free_slots() const noexcept {
        std::size_t n = 0;
        for (const auto& [size, list] : core_->free_by_size) n += list.size();
        return n;
    }

private:
    struct Core {
        // Free slots keyed by size class (exact rounded byte size).  An
        // ordered map: deterministic iteration and only a handful of
        // distinct message sizes exist per run.
        std::map<std::size_t, std::vector<void*>> free_by_size;
        std::vector<std::unique_ptr<std::byte[]>> chunks;
        std::size_t chunk_used = 0;
        std::size_t chunk_cap = 0;
        PoolStats stats;

        static constexpr std::size_t kChunkBytes = 64 * 1024;
        static constexpr std::size_t kAlign = alignof(std::max_align_t);
        /// Slots above this go straight to the heap (huge payload edge case;
        /// pooling them would pin arena memory for rare one-offs).
        static constexpr std::size_t kMaxPooledBytes = 4 * 1024;

        static constexpr std::size_t round_up(std::size_t n) noexcept {
            return (n + kAlign - 1) & ~(kAlign - 1);
        }

        void* allocate(std::size_t bytes) {
            const std::size_t size = round_up(bytes);
            stats.acquired += 1;
            if (size > kMaxPooledBytes) {
                stats.oversize_allocs += 1;
                return ::operator new(size);
            }
            if (auto it = free_by_size.find(size);
                it != free_by_size.end() && !it->second.empty()) {
                void* slot = it->second.back();
                it->second.pop_back();
                stats.reused += 1;
#ifdef __SANITIZE_ADDRESS__
                ASAN_UNPOISON_MEMORY_REGION(slot, size);
#endif
                return slot;
            }
            if (chunk_used + size > chunk_cap) {
                chunks.push_back(std::make_unique<std::byte[]>(kChunkBytes));
                chunk_used = 0;
                chunk_cap = kChunkBytes;
                stats.chunk_allocs += 1;
                stats.bytes_reserved += kChunkBytes;
            }
            void* slot = chunks.back().get() + chunk_used;
            chunk_used += size;
            return slot;
        }

        void release(void* p, std::size_t bytes) noexcept {
            const std::size_t size = round_up(bytes);
            if (size > kMaxPooledBytes) {
                ::operator delete(p);
                return;
            }
            stats.released += 1;
#ifndef NDEBUG
            std::memset(p, 0xDD, size);  // poison: stale reads crash loudly
#endif
#ifdef __SANITIZE_ADDRESS__
            ASAN_POISON_MEMORY_REGION(p, size);
#endif
            free_by_size[size].push_back(p);
        }
    };

    template <typename T>
    struct Alloc {
        using value_type = T;

        std::shared_ptr<Core> core;

        explicit Alloc(std::shared_ptr<Core> c) noexcept : core(std::move(c)) {}
        template <typename U>
        Alloc(const Alloc<U>& other) noexcept : core(other.core) {}  // NOLINT

        T* allocate(std::size_t n) {
            return static_cast<T*>(core->allocate(n * sizeof(T)));
        }
        void deallocate(T* p, std::size_t n) noexcept {
            core->release(p, n * sizeof(T));
        }

        template <typename U>
        bool operator==(const Alloc<U>& other) const noexcept {
            return core == other.core;
        }
    };

    std::shared_ptr<Core> core_;
};

/// Nullable-pool helper used at every message-construction site: a null
/// pool (pooling disabled, or a component wired without one) falls back to
/// plain make_shared with identical observable behavior.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> make_msg(MessagePool* pool, Args&&... args) {
    if (pool != nullptr) return pool->make<T>(std::forward<Args>(args)...);
    return std::make_shared<T>(std::forward<Args>(args)...);
}

}  // namespace rbft::net
