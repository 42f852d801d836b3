// Deterministic-iteration associative containers.
//
// The whole verification stack — the schedule explorer's shrink/replay, the
// chaos-soak safety twin, the obs-trace byte comparisons — assumes the
// simulation is bit-deterministic per seed.  `std::unordered_map/set`
// iteration order depends on the hash function, the libstdc++ version and
// the allocation history, so a single range-for over an unordered protocol
// member can silently break replay without failing any functional test.
//
// `det::map` / `det::set` are drop-in replacements whose iteration order is
// the key order (they are thin wrappers over the ordered `std::map` /
// `std::set`), plus a no-op `reserve()` so call sites migrating from the
// unordered containers keep compiling.  Protocol-critical state — anything
// under src/{bft,rbft,protocols,net,sim,fault} — must use these (or a
// sequence container); tests/test_source_rules.cpp bans std::unordered_*
// and std::hash there outright.
//
// The O(log n) lookup (vs amortized O(1)) is irrelevant at simulation
// scale; determinism of the replayed schedule is not.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>

namespace rbft::det {

/// Ordered map with deterministic (key-sorted) iteration.  Derivation is
/// implementation inheritance of a value type only: never delete through a
/// base-class pointer.
template <typename Key, typename T, typename Compare = std::less<Key>>
class map : public std::map<Key, T, Compare> {
public:
    using std::map<Key, T, Compare>::map;

    /// API compatibility with `std::unordered_map`; ordered trees have
    /// nothing to pre-allocate.
    void reserve(std::size_t) noexcept {}
};

/// Ordered set with deterministic (key-sorted) iteration.
template <typename Key, typename Compare = std::less<Key>>
class set : public std::set<Key, Compare> {
public:
    using std::set<Key, Compare>::set;

    /// API compatibility with `std::unordered_set`.
    void reserve(std::size_t) noexcept {}
};

}  // namespace rbft::det
