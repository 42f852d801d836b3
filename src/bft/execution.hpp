// The ordering→execution backends: which committed per-instance orders
// reach the Execution module.
//
// RBFT as published executes only the master instance's committed batches —
// the f+1 redundant orderings exist purely so the monitoring layer can
// police the master.  The merged backend (FnF / RCC style, post-2013)
// executes a deterministic merge of the lowest merge_width(f) instances'
// committed orders instead.  The node picks one of the two from
// ExecutionBackend and acts on it directly (rbft::core::Node::engine_ordered);
// this header holds the selector and the merge it drives.
//
// Layering: this header sits in src/bft next to the engine and depends only
// on bft and common, so src/rbft can hold a DeterministicMerge without
// reaching into src/protocols.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "bft/messages.hpp"
#include "common/request_key_set.hpp"
#include "common/types.hpp"

namespace rbft::bft {

/// Selector for the ordering→execution backend (registry + --backend flag).
enum class ExecutionBackend : std::uint32_t {
    kMasterOnly = 0,  // the paper's RBFT: execute master-instance commits
    kMerged = 1,      // parallel-leader: merge all f+1 committed orders
};

[[nodiscard]] constexpr const char* backend_name(ExecutionBackend b) noexcept {
    switch (b) {
        case ExecutionBackend::kMasterOnly: return "master-only";
        case ExecutionBackend::kMerged: return "merged";
    }
    return "?";
}

[[nodiscard]] inline std::optional<ExecutionBackend> parse_backend(std::string_view name) {
    if (name == "master-only" || name == "rbft") return ExecutionBackend::kMasterOnly;
    if (name == "merged") return ExecutionBackend::kMerged;
    return std::nullopt;
}

/// FNV-1a over the request identities of a batch: the content fingerprint
/// used by the commit safety log and the agreement oracle (one formula,
/// defined once).
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;
inline constexpr std::uint64_t kFingerprintPrime = 1099511628211ULL;

[[nodiscard]] inline std::uint64_t fingerprint_refs(const std::vector<RequestRef>& refs) {
    std::uint64_t h = kFingerprintSeed;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= kFingerprintPrime;
    };
    for (const auto& ref : refs) {
        mix(raw(ref.client));
        mix(raw(ref.rid));
    }
    return h;
}

/// The merged backend's deterministic merge.  Every instance's committed
/// order is one input stream; push() appends one committed request to an
/// instance's stream; drain() emits the front of each stream in round-robin
/// instance order, skipping requests already emitted by another stream (a
/// request is ordered by *every* instance), and stalls (without advancing
/// the cursor) when the current stream has nothing new — lock-step fairness
/// across the parallel leaders.  Because the merge is a pure function of the
/// per-instance committed sequences, every correct node that commits the
/// same per-instance orders executes the same merged order, regardless of
/// the real-time interleaving in which batches locally committed
/// (tests/test_backends.cpp asserts permutation stability).
class DeterministicMerge {
public:
    explicit DeterministicMerge(std::uint32_t width) : queues_(width) {}

    [[nodiscard]] std::uint32_t width() const noexcept {
        return static_cast<std::uint32_t>(queues_.size());
    }

    void push(std::uint32_t instance, const RequestRef& ref) {
        queues_.at(instance).push_back(ref);
    }

    /// Emits every request that is now determined, oldest first.
    template <typename Emit>
    void drain(Emit&& emit) {
        while (true) {
            auto& q = queues_[cursor_];
            // Requests another stream already emitted are spent; drop them
            // without consuming this stream's round-robin turn.
            while (!q.empty() && emitted_.contains(q.front().key())) q.pop_front();
            if (q.empty()) return;  // stall until this instance commits more
            emitted_.insert(q.front().key());
            emit(q.front());
            q.pop_front();
            cursor_ = (cursor_ + 1) % static_cast<std::uint32_t>(queues_.size());
        }
    }

    /// Requests emitted so far (the oracle test checks duplicate-freedom).
    [[nodiscard]] std::uint64_t emitted_count() const noexcept { return emitted_.size(); }

private:
    std::vector<std::deque<RequestRef>> queues_;
    RequestKeySet emitted_;
    std::uint32_t cursor_ = 0;
};

}  // namespace rbft::bft
