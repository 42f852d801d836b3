// Spinning (Veronese et al., SRDS 2009) — as analysed in paper §III-C.
//
// A PBFT descendant that changes the primary automatically after every
// ordered batch (no message exchange).  Clients send requests to all
// replicas; when a non-primary replica has a request waiting longer than
// Stimeout, the current primary is blacklisted (it can no longer become
// primary; if f replicas are already blacklisted the oldest is unlisted to
// preserve liveness), a merge operation — modeled by the engine's
// view-change machinery — elects the next primary, and Stimeout doubles.
// Stimeout resets to its initial value after a successful ordering.
//
// Messages are MAC-authenticated only (no client signatures), which is why
// Spinning posts the highest fault-free throughput of the protocols
// compared in Fig. 7.  The §III-C weakness reproduced by bench_fig3: a
// malicious primary delays its batch by a little less than Stimeout every
// time its turn comes around, cutting throughput by up to 99% without ever
// being blacklisted.
#pragma once

#include <deque>
#include <set>

#include "protocols/baseline.hpp"

namespace rbft::protocols {

struct SpinningConfig {
    BaselineConfig base{};

    void assign_topology(NodeId node, std::uint32_t n, std::uint32_t f) noexcept {
        base.assign_topology(node, n, f);
    }

    /// Initial (and reset) value of Stimeout; the paper's authors use 40 ms.
    Duration stimeout = milliseconds(40.0);
    /// Timeout-check cadence (fine-grained: per-request timers in the real
    /// system, a short periodic sweep here).
    Duration check_period = milliseconds(5.0);

    SpinningConfig() {
        base.verify_client_signatures = false;  // MAC-only (§VI-B)
        base.rotating_primary = true;
        // Clients broadcast request bodies to every replica, so ordering
        // messages reference digests (the classic big-request optimization).
        base.order_full_requests = false;
        // One batch per view: rotation serializes proposals, so the batch
        // size bounds throughput at batch_max / commit-latency.  Batches
        // are also bounded by the UDP multicast datagram budget.
        base.batch_max = 12;
        base.batch_max_bytes = 9000;
    }
};

class SpinningNode final : public BaselineNode {
public:
    SpinningNode(SpinningConfig config, sim::Simulator& simulator, net::Fabric& network,
                 const crypto::KeyStore& keys, const crypto::CostModel& costs,
                 std::unique_ptr<core::Service> service);

    void start() override;

    [[nodiscard]] Duration current_stimeout() const noexcept { return stimeout_; }
    [[nodiscard]] bool blacklisted(NodeId node) const noexcept {
        return blacklist_.contains(node);
    }
    [[nodiscard]] std::uint64_t timeouts_fired() const noexcept { return ctr_timeouts_->value(); }

protected:
    void on_batch_executed(const bft::OrderedBatch& batch) override;

protected:
    void engine_view_installed(InstanceId instance, ViewId view) override;

private:
    void tick();

    SpinningConfig scfg_;
    sim::PeriodicTimer timer_;
    Duration stimeout_{};
    /// Timers measure from the last sign of progress (delivery or merge):
    /// per §III-C the per-request timer restarts when ordering succeeds,
    /// and a merge gives the incoming primary a fresh Stimeout.
    TimePoint progress_base_{};
    std::set<NodeId> blacklist_;
    std::deque<NodeId> blacklist_order_;
    obs::Counter* ctr_timeouts_ = nullptr;
};

}  // namespace rbft::protocols
