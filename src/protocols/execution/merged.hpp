// Parallel-leader merged execution (FnF / RCC style, post-2013).
//
// RBFT already pays for f+1 fully redundant orderings so that monitoring
// can police the master; the merged backend stops throwing the backups'
// work away.  Every instance's committed order becomes one input stream of
// a deterministic merge — round-robin across the merge_width(f) lowest
// instances, with duplicate requests (a request is ordered by *every*
// instance) suppressed on first emission — and the merged stream is what
// reaches the Execution module.  Because the merge is a pure function of
// the per-instance committed sequences, every correct node that commits
// the same per-instance orders executes the same merged order, regardless
// of the real-time interleaving in which batches locally committed
// (tests/test_backends.cpp asserts permutation stability).
//
// The commit safety log stays anchored to the master instance exactly as
// in master-only mode: the log's cross-node agreement invariant (and the
// chaos soak's restart-hole analysis) is backend-invariant; only what gets
// executed changes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bft/execution.hpp"
#include "common/request_key_set.hpp"

namespace rbft::protocols {

/// The deterministic merge core, separated from the policy so the
/// randomized oracle test can drive it directly.  push() appends one
/// committed request to an instance's stream; drain() emits the front of
/// each stream in round-robin instance order, skipping requests already
/// emitted by another stream, and stalls (without advancing the cursor)
/// when the current stream has nothing new — lock-step fairness across the
/// parallel leaders.
class DeterministicMerge {
public:
    explicit DeterministicMerge(std::uint32_t width) : queues_(width) {}

    [[nodiscard]] std::uint32_t width() const noexcept {
        return static_cast<std::uint32_t>(queues_.size());
    }

    void push(std::uint32_t instance, const bft::RequestRef& ref) {
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
    std::vector<std::deque<bft::RequestRef>> queues_;
    RequestKeySet emitted_;
    std::uint32_t cursor_ = 0;
};

class MergedExecution final : public bft::ExecutionPolicy {
public:
    /// width is clamped to the node's actual instance count (the ablation
    /// benches override it below merge_width(f)).
    MergedExecution(std::uint32_t f, std::uint32_t instances);

    [[nodiscard]] const char* name() const noexcept override { return "merged"; }

    void on_batch_committed(const bft::OrderedBatch& batch, bft::ExecutionSink& sink) override;
    void on_ref_committed(const bft::OrderedBatch& batch, const bft::RequestRef& ref,
                          bft::ExecutionSink& sink) override;
    void after_batch(const bft::OrderedBatch& batch, bft::ExecutionSink& sink) override;

private:
    DeterministicMerge merge_;
};

}  // namespace rbft::protocols
