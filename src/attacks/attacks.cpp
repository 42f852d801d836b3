#include "attacks/attacks.hpp"

#include <algorithm>

namespace rbft::attacks {

// ---------------------------------------------------------------------------
// Worst-attack-1: the master primary is correct; f faulty nodes (chosen so
// that none hosts the master primary) degrade the master instance.

WorstAttack1::WorstAttack1(core::Cluster& cluster, WorstAttack1Config config)
    : cluster_(cluster), config_(config) {}

void WorstAttack1::install() {
    const NodeId primary_node = cluster_.master_primary_node();
    client_mask_ = std::uint64_t{1} << raw(primary_node);

    // Pick the f faulty nodes among nodes that are neither the master
    // primary's node nor needed to keep a 2f+1 correct quorum... with
    // N = 3f+1 and f faulty, 2f+1 correct nodes remain by construction.
    std::vector<NodeId> faulty;
    for (std::uint32_t i = cluster_.node_count(); i-- > 0 && faulty.size() < cluster_.config().f;) {
        if (NodeId{i} == primary_node) continue;
        faulty.push_back(NodeId{i});
    }
    faulty_node_ = faulty.front();

    for (NodeId fn : faulty) {
        cluster_.node(fn).set_faulty(true);

        // (ii) flood the master primary's node with invalid PROPAGATEs.
        flooders_.push_back(std::make_unique<Flooder>(
            cluster_.simulator(), cluster_.network(), fn,
            std::vector<net::Address>{net::Address::node(primary_node)},
            net::FloodMsg::Target::kPropagation, InstanceId{0}, config_.flood_rate));

        // (iii) the faulty master-instance replicas flood the correct ones
        // with invalid messages of maximal size; (iv) they abstain — the
        // whole node is already silenced above.
        std::vector<net::Address> correct;
        for (std::uint32_t i = 0; i < cluster_.node_count(); ++i) {
            const NodeId node{i};
            if (std::find(faulty.begin(), faulty.end(), node) != faulty.end()) continue;
            correct.push_back(net::Address::node(node));
        }
        flooders_.push_back(std::make_unique<Flooder>(
            cluster_.simulator(), cluster_.network(), fn, correct,
            net::FloodMsg::Target::kReplica, core::Node::master_instance(),
            config_.flood_rate));
    }
    for (auto& flooder : flooders_) flooder->start();
}

// ---------------------------------------------------------------------------
// Worst-attack-2: the master primary runs on the faulty node and delays
// ordering down to the Δ detection threshold.

WorstAttack2::WorstAttack2(core::Cluster& cluster, WorstAttack2Config config)
    : cluster_(cluster), config_(config) {}

void WorstAttack2::install() {
    faulty_node_ = cluster_.master_primary_node();
    for (std::uint32_t i = 0; i < cluster_.node_count(); ++i) {
        if (NodeId{i} != faulty_node_) {
            observer_node_ = NodeId{i};
            break;
        }
    }

    core::Node& evil = cluster_.node(faulty_node_);
    // The node stays live (it must run the master primary) but stops honest
    // monitoring, and its replicas on the backup instances abstain.
    evil.set_monitoring_enabled(false);
    for (std::uint32_t inst = 1; inst < evil.instance_count(); ++inst) {
        evil.engine(InstanceId{inst}).set_silent(true);
    }

    std::vector<net::Address> correct;
    std::vector<NodeId> other_faulty;  // f-1 additional faulty nodes
    for (std::uint32_t i = cluster_.node_count(); i-- > 0;) {
        const NodeId node{i};
        if (node == faulty_node_) continue;
        if (other_faulty.size() + 1 < cluster_.config().f) {
            other_faulty.push_back(node);
        }
    }
    for (std::uint32_t i = 0; i < cluster_.node_count(); ++i) {
        const NodeId node{i};
        if (node == faulty_node_) continue;
        if (std::find(other_faulty.begin(), other_faulty.end(), node) != other_faulty.end()) {
            continue;
        }
        correct.push_back(net::Address::node(node));
    }

    // Flooding from the primary-host node must stay under the NIC-close
    // threshold, or its own PRE-PREPARE channel gets shut (the defense
    // wins).  Budget the allowed invalid rate across this node's flooders.
    static_assert(core::Node::kFloodInvalidThreshold > 2);
    const double invalid_budget =
        static_cast<double>(core::Node::kFloodInvalidThreshold - 2) /
        core::MonitoringConfig::kPeriod.seconds();
    const std::uint32_t host_flooders = evil.instance_count();  // f backups + propagation
    const double host_rate = invalid_budget / host_flooders;

    for (std::uint32_t inst = 1; inst < evil.instance_count(); ++inst) {
        flooders_.push_back(std::make_unique<Flooder>(
            cluster_.simulator(), cluster_.network(), faulty_node_, correct,
            net::FloodMsg::Target::kReplica, InstanceId{inst}, host_rate));
    }
    flooders_.push_back(std::make_unique<Flooder>(
        cluster_.simulator(), cluster_.network(), faulty_node_, correct,
        net::FloodMsg::Target::kPropagation, InstanceId{0}, host_rate));

    // The remaining faulty nodes have nothing to lose: full silence and
    // unconstrained flooding (their NICs closing costs the attack nothing).
    for (NodeId fn : other_faulty) {
        cluster_.node(fn).set_faulty(true);
        flooders_.push_back(std::make_unique<Flooder>(
            cluster_.simulator(), cluster_.network(), fn, correct,
            net::FloodMsg::Target::kPropagation, InstanceId{0}, config_.flood_rate));
        for (std::uint32_t inst = 1; inst < evil.instance_count(); ++inst) {
            flooders_.push_back(std::make_unique<Flooder>(
                cluster_.simulator(), cluster_.network(), fn, correct,
                net::FloodMsg::Target::kReplica, InstanceId{inst}, config_.flood_rate));
        }
    }
    for (auto& flooder : flooders_) flooder->start();
}

void WorstAttack2::start() {
    prev_time_ = cluster_.simulator().now();
    timer_.start(cluster_.simulator(), config_.retune_period, [this] { retune(); });
}

void WorstAttack2::retune() {
    // Observe ordering progress at a correct node (the colluding clients
    // see it through replies; modeling shortcut for the same information).
    core::Node& observer = cluster_.node(observer_node_);
    std::uint64_t backup_total = 0;
    std::uint32_t backups = 0;
    for (std::uint32_t inst = 1; inst < observer.instance_count(); ++inst) {
        backup_total += observer.engine(InstanceId{inst}).total_ordered();
        ++backups;
    }
    backup_total /= std::max(1u, backups);
    const std::uint64_t master_total = observer.engine(InstanceId{0}).total_ordered();

    const TimePoint now = cluster_.simulator().now();
    const double dt = (now - prev_time_).seconds();
    if (dt <= 0.0) return;
    const double backup_rate =
        static_cast<double>(backup_total - prev_backup_total_) / dt;
    const double master_rate =
        static_cast<double>(master_total - prev_master_total_) / dt;
    prev_backup_total_ = backup_total;
    prev_master_total_ = master_total;
    prev_time_ = now;
    if (backup_rate <= 0.0) return;

    bft::InstanceEngine& master = cluster_.node(faulty_node_).engine(InstanceId{0});
    if (!master.is_primary()) {
        master.set_primary_behavior({});  // dethroned: nothing left to exploit
        return;
    }

    // Multiplicative feedback: steer the observed master/backup ratio to
    // Δ + margin.  Open-loop gap math under-delivers because batches are
    // not always full; feedback converges on the real ratio.  Small batches
    // keep the per-window rate quantization below the attacker's margin,
    // and the adjustment is asymmetric: approach the detection threshold
    // slowly from above, back off fast when the ratio dips near Δ.
    const std::uint32_t attack_batch =
        std::min<std::uint32_t>(16, cluster_.config().batch_max);
    const double delta = cluster_.config().monitoring.delta;
    const double target_ratio = delta + config_.ratio_margin;
    const double target_rate = backup_rate * target_ratio;
    const double ratio = master_rate / backup_rate;
    double gap_s = current_gap_.seconds();
    if (gap_s <= 0.0) {
        gap_s = static_cast<double>(attack_batch) / target_rate;
    } else if (ratio < delta + config_.ratio_margin / 4.0) {
        gap_s *= 0.8;  // too close to detection: speed up sharply
    } else {
        gap_s *= std::clamp(ratio / target_ratio, 0.94, 1.06);
    }
    current_gap_ = seconds(gap_s);
    bft::PrimaryBehavior behavior;
    behavior.inter_batch_gap = current_gap_;
    behavior.batch_cap = attack_batch;
    master.set_primary_behavior(behavior);
}

// ---------------------------------------------------------------------------
// Master degradation.

MasterDegradation::MasterDegradation(core::Cluster& cluster, MasterDegradationConfig config)
    : cluster_(cluster), config_(config) {}

void MasterDegradation::install() {
    faulty_node_ = cluster_.master_primary_node();
    bft::InstanceEngine& master = cluster_.node(faulty_node_).engine(InstanceId{0});
    bft::PrimaryBehavior behavior;
    behavior.inter_batch_gap = config_.inter_batch_gap;
    behavior.preprepare_delay = config_.preprepare_delay;
    behavior.batch_cap = config_.batch_cap;
    master.set_primary_behavior(behavior);
}

// ---------------------------------------------------------------------------
// Unfair primary.

UnfairPrimary::UnfairPrimary(core::Cluster& cluster, UnfairPrimaryConfig config)
    : cluster_(cluster), config_(config), victim_count_(std::make_shared<std::uint64_t>(0)) {}

void UnfairPrimary::install() {
    const NodeId primary_node = cluster_.master_primary_node();
    bft::InstanceEngine& master = cluster_.node(primary_node).engine(InstanceId{0});

    bft::PrimaryBehavior behavior;
    behavior.per_request_delay = [cfg = config_, count = victim_count_](
                                     const bft::RequestRef& ref) -> Duration {
        if (ref.client != cfg.victim) return Duration{};
        const std::uint64_t seen = (*count)++;
        if (seen < cfg.stage1_requests) return Duration{};
        if (seen < cfg.stage1_requests + cfg.stage2_requests) return cfg.stage2_delay;
        return cfg.stage3_delay;
    };
    master.set_primary_behavior(behavior);
}

// ---------------------------------------------------------------------------
// Prime attack.

PrimeAttack::PrimeAttack(protocols::PrimeCluster& cluster, NodeId malicious_primary,
                         PrimeAttackConfig config)
    : cluster_(cluster), malicious_(malicious_primary), config_(config) {}

void PrimeAttack::start() {
    timer_.start(cluster_.simulator(), config_.retune_period, [this] { retune(); });
}

void PrimeAttack::retune() {
    // The malicious primary delays ORDERs to just under the loosest bound a
    // correct replica currently enforces (bounds drift with monitored RTTs).
    // Both the sender's ordering loop and the receivers' suspicion checks
    // run on a check-period grid, so the observed gap exceeds the configured
    // one by up to two check periods — subtract that slack.
    Duration min_bound = seconds(3600.0);
    for (std::uint32_t i = 0; i < cluster_.n(); ++i) {
        if (NodeId{i} == malicious_) continue;
        min_bound = std::min(min_bound, cluster_.node(i).order_bound());
    }
    auto& evil = cluster_.node(raw(malicious_));
    Duration gap = min_bound * config_.bound_margin - evil.config().check_period * std::int64_t{2};
    if (gap < evil.config().order_period) gap = evil.config().order_period;
    evil.set_order_gap_override(gap);
}

// ---------------------------------------------------------------------------
// Aardvark attack.

AardvarkAttack::AardvarkAttack(protocols::AardvarkCluster& cluster, NodeId malicious_primary,
                               AardvarkAttackConfig config)
    : cluster_(cluster), malicious_(malicious_primary), config_(config) {}

void AardvarkAttack::start() {
    retune();  // malicious from the very first batch
    timer_.start(cluster_.simulator(), config_.retune_period, [this] { retune(); });
}

void AardvarkAttack::retune() {
    protocols::AardvarkNode& evil = cluster_.node(raw(malicious_));
    if (!evil.engine().is_primary()) {
        evil.engine().set_primary_behavior({});
        return;
    }
    // Meet (just above) the stiffest requirement any correct replica holds.
    double required = 0.0;
    for (std::uint32_t i = 0; i < cluster_.n(); ++i) {
        if (NodeId{i} == malicious_) continue;
        required = std::max(required, cluster_.node(i).required_tps());
    }
    // Pacing must keep every monitoring window non-empty (an empty window
    // reads as zero throughput and triggers an immediate view change), so
    // the attacker sends small batches at least twice per check period and
    // trims the batch size to hit the target rate.
    const Duration max_gap = config_.idle_gap;
    double target;
    if (required <= 0.0) {
        // No expectation yet: the requirement will bootstrap from whatever
        // we show first — show (and lock in) a trickle.
        target = 200.0;  // a visible trickle with low window variance
    } else {
        target = required * config_.required_margin;
    }
    bft::PrimaryBehavior behavior;
    const auto cap = static_cast<std::uint32_t>(
        std::clamp(target * max_gap.seconds(), 1.0, 64.0));
    behavior.batch_cap = cap;
    behavior.inter_batch_gap = seconds(static_cast<double>(cap) / target);
    evil.engine().set_primary_behavior(behavior);
}

// ---------------------------------------------------------------------------
// Spinning attack.

SpinningAttack::SpinningAttack(protocols::SpinningCluster& cluster, NodeId malicious_primary,
                               SpinningAttackConfig config)
    : cluster_(cluster), malicious_(malicious_primary), config_(config) {}

void SpinningAttack::start() {
    retune();
    timer_.start(cluster_.simulator(), config_.retune_period, [this] { retune(); });
}

void SpinningAttack::retune() {
    // Delay every batch by a little less than the (public) Stimeout value.
    Duration min_stimeout = seconds(3600.0);
    for (std::uint32_t i = 0; i < cluster_.n(); ++i) {
        if (NodeId{i} == malicious_) continue;
        min_stimeout = std::min(min_stimeout, cluster_.node(i).current_stimeout());
    }
    bft::PrimaryBehavior behavior;
    behavior.preprepare_delay = min_stimeout * config_.stimeout_fraction;
    cluster_.node(raw(malicious_)).engine().set_primary_behavior(behavior);
}

}  // namespace rbft::attacks
