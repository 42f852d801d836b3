// Aardvark (Clement et al., NSDI 2009) — as analysed in paper §III-B.
//
// A PBFT descendant hardened against Byzantine participants:
//  * client requests are signed (and MAC-authenticated);
//  * the primary is changed regularly: at the start of a view the primary
//    must sustain ≥ 90% of the maximum throughput achieved over the last N
//    views; after a grace period the requirement is raised periodically
//    until the primary fails it, forcing a view change;
//  * a heartbeat timer fires a view change if the primary stops sending
//    PRE-PREPAREs while requests are waiting;
//  * whole requests (not digests) are ordered, and the implementation is a
//    single event loop — both modeled here (single core, order_full).
//
// The §III-B weakness reproduced by bench_fig2: expectations are computed
// from *achieved* history, so under a dynamic load a malicious primary
// inherits expectations from a low-load period and can delay requests
// during a spike without failing the requirement.
#pragma once

#include <deque>

#include "protocols/baseline.hpp"

namespace rbft::protocols {

struct AardvarkConfig {
    BaselineConfig base{};

    void assign_topology(NodeId node, std::uint32_t n, std::uint32_t f) noexcept {
        base.assign_topology(node, n, f);
        history_views = n;
    }

    /// Throughput-check cadence.
    Duration check_period = milliseconds(100.0);
    /// Grace period at the start of each view with a stable requirement.
    /// (The paper uses 5 s on hour-long runs; benches scale it down with
    /// the simulated duration.)
    Duration grace_period = seconds(1.0);  // (paper: 5 s on hour-long runs)
    /// Required fraction of the historical maximum throughput.
    double required_fraction = 0.9;
    /// Multiplicative raise applied to the requirement each check after
    /// the grace period ("factor of 0.01" per paper = ×1.01).
    double raise_factor = 1.03;
    /// Views of history considered (paper: N = number of replicas).
    std::uint32_t history_views = 4;
    /// Heartbeat: max silence from the primary while requests wait.
    Duration heartbeat_timeout = milliseconds(500.0);
    /// Escalation when a view change stalls (faulty new primary).
    Duration view_change_timeout = milliseconds(500.0);
};

class AardvarkNode final : public BaselineNode {
public:
    AardvarkNode(AardvarkConfig config, sim::Simulator& simulator, net::Fabric& network,
                 const crypto::KeyStore& keys, const crypto::CostModel& costs,
                 std::unique_ptr<core::Service> service);

    void start() override;

    /// Throughput (req/s) currently required of the primary; the adaptive
    /// attacker reads this to stay just above the detection threshold.
    [[nodiscard]] double required_tps() const noexcept { return required_tps_; }

    void engine_view_installed(InstanceId instance, ViewId view) override;

private:
    void tick();
    void trigger_view_change();

    AardvarkConfig acfg_;
    sim::PeriodicTimer timer_;
    TimePoint view_start_{};
    std::uint64_t view_ordered_ = 0;   // requests ordered in the current view
    std::uint32_t ticks_in_view_ = 0;  // settle-time guard after a view change
    std::uint32_t bad_windows_ = 0;    // consecutive below-requirement windows
    double required_base_tps_ = 0.0;
    double required_tps_ = 0.0;
    std::deque<double> history_;  // sustained tps of recent views
};

}  // namespace rbft::protocols
