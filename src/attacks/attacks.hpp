// Attack orchestration: the Byzantine behaviours evaluated in the paper.
//
// Each attack is a small controller object wired onto a running cluster.
// Controllers use the same information a real attacker has: protocol
// constants (Δ, Stimeout, required-throughput schedules are public
// knowledge) and the traffic the colluding faulty nodes observe.  Where the
// paper's attacker adapts ("delays requests down to the limit value such
// that the throughput ratio observed at the correct nodes is greater or
// equal than Δ", §VI-C2), the controller periodically re-reads the relevant
// signal and retunes the malicious primary's rate.
//
//  * worst-attack-1 (§VI-C1, Figs. 8-9): correct master primary; faulty
//    clients make their requests unverifiable at the master primary's node;
//    faulty nodes flood it with invalid PROPAGATEs; faulty master-instance
//    replicas flood correct ones and abstain.
//  * worst-attack-2 (§VI-C2, Figs. 10-11): faulty master primary delays
//    requests to just above Δ; faulty nodes flood correct nodes and abstain
//    from PROPAGATE; faulty backup-instance replicas flood and abstain;
//    faulty clients add invalid traffic.
//  * unfair primary (§VI-C3, Fig. 12): the master primary delays one
//    client's requests in stages until the Λ latency bound trips.
//  * Prime attack (§III-A, Fig. 1): heavy faulty-client requests inflate
//    monitored RTTs; the malicious primary spaces ORDERs just under the
//    loosened bound.
//  * Aardvark attack (§III-B, Fig. 2): the malicious primary orders just
//    above the required throughput — devastating right after a low-load
//    period under a dynamic load.
//  * Spinning attack (§III-C, Fig. 3): the malicious primary delays its
//    batch by a little less than Stimeout every time its turn comes.
#pragma once

#include <memory>
#include <vector>

#include "net/flood.hpp"
#include "protocols/clusters.hpp"
#include "rbft/cluster.hpp"
#include "sim/timer.hpp"

namespace rbft::attacks {

/// Periodic flood of maximal-size invalid messages from `from` to `to`.
class Flooder {
public:
    Flooder(sim::Simulator& simulator, net::Network& network, NodeId from,
            std::vector<net::Address> targets, net::FloodMsg::Target kind,
            InstanceId instance, double rate_per_target)
        : simulator_(simulator),
          network_(network),
          from_(from),
          targets_(std::move(targets)),
          kind_(kind),
          instance_(instance) {
        period_ = seconds(1.0 / rate_per_target);
    }

    void start() {
        timer_.start(simulator_, period_, [this] {
            auto flood = std::make_shared<net::FloodMsg>(net::kMaxFloodBytes, kind_, instance_);
            for (const auto& target : targets_) {
                network_.send(net::Address::node(from_), target, flood);
            }
        });
    }

    void stop() { timer_.stop(simulator_); }

private:
    sim::Simulator& simulator_;
    net::Network& network_;
    NodeId from_;
    std::vector<net::Address> targets_;
    net::FloodMsg::Target kind_;
    InstanceId instance_;
    Duration period_{};
    sim::PeriodicTimer timer_;
};

// ---------------------------------------------------------------------------
// RBFT worst-attack-1 (correct master primary).

struct WorstAttack1Config {
    /// Flood rate per (faulty node, target) pair, msgs/s.
    double flood_rate = 2000.0;
};

class WorstAttack1 {
public:
    WorstAttack1(core::Cluster& cluster, WorstAttack1Config config = {});

    /// Applies the behaviours; call before cluster.start().
    void install();

    /// Corrupt-MAC mask the faulty clients must use (unverifiable at the
    /// master primary's node only).
    [[nodiscard]] std::uint64_t client_mac_mask() const noexcept { return client_mask_; }
    [[nodiscard]] NodeId faulty_node() const noexcept { return faulty_node_; }

private:
    core::Cluster& cluster_;
    WorstAttack1Config config_;
    NodeId faulty_node_{};
    std::uint64_t client_mask_ = 0;
    std::vector<std::unique_ptr<Flooder>> flooders_;
};

// ---------------------------------------------------------------------------
// RBFT worst-attack-2 (faulty master primary).

struct WorstAttack2Config {
    /// Ratio the malicious master primary steers for (kept just above Δ).
    double ratio_margin = 0.015;
    /// Controller retune cadence.
    Duration retune_period = milliseconds(100.0);
    /// Flood rate for the f-1 fully-faulty nodes (the primary-host node's
    /// flooders are budgeted under the NIC-close threshold automatically).


    double flood_rate = 2000.0;
};

class WorstAttack2 {
public:
    WorstAttack2(core::Cluster& cluster, WorstAttack2Config config = {});

    void install();
    /// Starts the adaptive delay controller (after cluster.start()).
    void start();

    [[nodiscard]] NodeId faulty_node() const noexcept { return faulty_node_; }

private:
    void retune();

    core::Cluster& cluster_;
    WorstAttack2Config config_;
    NodeId faulty_node_{};      // hosts the master primary
    NodeId observer_node_{};    // correct node whose backups we observe
    std::uint64_t prev_backup_total_ = 0;
    std::uint64_t prev_master_total_ = 0;
    TimePoint prev_time_{};
    Duration current_gap_{};
    sim::PeriodicTimer timer_;
    std::vector<std::unique_ptr<Flooder>> flooders_;
};

// ---------------------------------------------------------------------------
// Master degradation (drives an instance change under either backend).

struct MasterDegradationConfig {
    /// Flat spacing between the malicious master primary's batches.  Unlike
    /// worst-attack-2 this is open-loop and well below Δ on purpose: the
    /// point is to *get caught* so the run exercises the instance-change
    /// path with batches in flight — under merged execution the merge must
    /// carry on across the master primary's replacement.
    Duration inter_batch_gap = milliseconds(3.0);
    /// Extra delay before each PRE_PREPARE goes out, widening the window in
    /// which a master batch is proposed but not yet committed.
    Duration preprepare_delay = milliseconds(1.0);
    std::uint32_t batch_cap = 8;
};

class MasterDegradation {
public:
    explicit MasterDegradation(core::Cluster& cluster, MasterDegradationConfig config = {});

    /// Applies the degraded behaviour to the current master primary; call
    /// before cluster.start().
    void install();

    [[nodiscard]] NodeId faulty_node() const noexcept { return faulty_node_; }

private:
    core::Cluster& cluster_;
    MasterDegradationConfig config_;
    NodeId faulty_node_{};
};

// ---------------------------------------------------------------------------
// Unfair primary (Fig. 12).

struct UnfairPrimaryConfig {
    ClientId victim{};
    /// Stage boundaries in executed-request counts for the victim.
    std::uint64_t stage1_requests = 500;  // fair
    std::uint64_t stage2_requests = 500;  // mildly delayed
    Duration stage2_delay = milliseconds(0.5);
    Duration stage3_delay = milliseconds(0.9);  // pushes latency past Λ
};

class UnfairPrimary {
public:
    UnfairPrimary(core::Cluster& cluster, UnfairPrimaryConfig config = {});
    void install();

private:
    core::Cluster& cluster_;
    UnfairPrimaryConfig config_;
    std::shared_ptr<std::uint64_t> victim_count_;
};

// ---------------------------------------------------------------------------
// Prime attack (Fig. 1).

struct PrimeAttackConfig {
    /// The malicious primary undercuts the observed bound by this factor
    /// (the bound drifts with RTT EWMAs, so the margin must absorb a few
    /// retune periods of drift).
    double bound_margin = 0.7;
    Duration retune_period = milliseconds(20.0);
};

class PrimeAttack {
public:
    PrimeAttack(protocols::PrimeCluster& cluster, NodeId malicious_primary,
                PrimeAttackConfig config = {});
    void start();

private:
    void retune();

    protocols::PrimeCluster& cluster_;
    NodeId malicious_;
    PrimeAttackConfig config_;
    sim::PeriodicTimer timer_;
};

// ---------------------------------------------------------------------------
// Aardvark attack (Fig. 2).

struct AardvarkAttackConfig {
    /// Safety factor above the required throughput.
    double required_margin = 1.18;
    Duration retune_period = milliseconds(50.0);
    /// Maximum spacing between the attacker's (tiny) batches: half the
    /// replicas' check period, so no monitoring window reads zero.
    Duration idle_gap = milliseconds(5.0);
};

class AardvarkAttack {
public:
    AardvarkAttack(protocols::AardvarkCluster& cluster, NodeId malicious_primary,
                   AardvarkAttackConfig config = {});
    void start();

private:
    void retune();

    protocols::AardvarkCluster& cluster_;
    NodeId malicious_;
    AardvarkAttackConfig config_;
    sim::PeriodicTimer timer_;
};

// ---------------------------------------------------------------------------
// Spinning attack (Fig. 3).

struct SpinningAttackConfig {
    /// Fraction of Stimeout the malicious primary delays its batch by
    /// ("a little less than Stimeout", §III-C).
    double stimeout_fraction = 0.95;
    Duration retune_period = milliseconds(50.0);
};

class SpinningAttack {
public:
    SpinningAttack(protocols::SpinningCluster& cluster, NodeId malicious_primary,
                   SpinningAttackConfig config = {});
    void start();

private:
    void retune();

    protocols::SpinningCluster& cluster_;
    NodeId malicious_;
    SpinningAttackConfig config_;
    sim::PeriodicTimer timer_;
};

}  // namespace rbft::attacks
