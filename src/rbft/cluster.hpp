// Cluster assembly: builds a complete simulated RBFT deployment — the
// simulator, the network fabric (TCP or UDP channel model), the keystore,
// N = 3f+1 nodes each running f+1 protocol instances — and wires message
// routing.  This is the top of the public API: examples and benches
// construct a Cluster, attach clients/workloads, and run the simulator.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/network.hpp"
#include "rbft/node.hpp"
#include "rbft/service.hpp"
#include "sim/simulator.hpp"

namespace rbft::core {

struct ClusterConfig {
    std::uint32_t f = 1;
    std::uint64_t seed = 42;
    /// Channel model between nodes and to clients (Fig. 7 compares both).
    bool use_udp = false;

    /// Recycle message allocations through a cluster-owned free-list pool
    /// (src/net/pool.hpp).  Off = plain make_shared; observable behavior is
    /// byte-identical either way (the equivalence rig asserts it).
    bool pooled_messages = true;

    std::uint32_t batch_max = 64;
    Duration batch_delay = milliseconds(1.0);
    bool order_full_requests = false;
    std::uint64_t checkpoint_interval = 128;
    /// Engine stall retry period (0 = disabled, the seed behavior).  Enable
    /// for fault-injection runs so ordering quorums interrupted by crashes
    /// or partitions complete after the fault clears.
    Duration engine_retry_interval{};

    MonitoringConfig monitoring{};
    FloodDefenseConfig flood_defense{};
    crypto::CostModel costs{};
    /// 0 = f+1 instances (see NodeConfig::instances_override).
    std::uint32_t instances_override = 0;
    /// Planted engine faults for oracle tests (defaults = correct engines).
    bft::EngineTestFaults engine_test_faults{};
    /// Ordering→execution backend of every node (see NodeConfig::backend).
    bft::ExecutionBackend backend = bft::ExecutionBackend::kMasterOnly;
    /// Metrics registry and flight recorder shared by the simulator, network
    /// and every node (must outlive the cluster); null = the cluster's own.
    obs::Recorder* recorder = nullptr;
    /// Per-run logger threaded through sim::Simulator::set_logger() (must
    /// outlive the cluster); null = logging disabled.  There is no global
    /// logger, so concurrent clusters never share logging state.
    Logger* logger = nullptr;

    [[nodiscard]] std::uint32_t n() const noexcept { return cluster_size(f); }
};

class Cluster {
public:
    using ServiceFactory = std::function<std::unique_ptr<Service>()>;

    explicit Cluster(ClusterConfig config,
                     ServiceFactory service_factory = [] { return std::make_unique<NullService>(); });

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /// Starts periodic monitoring on every node.  Call once, then run the
    /// simulator.
    void start();

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] net::Network& network() noexcept { return *network_; }
    /// Cluster-wide message pool (null when pooled_messages is off).  Hand
    /// it to clients (ClientBehavior::message_pool) attached to this
    /// cluster.
    [[nodiscard]] net::MessagePool* message_pool() noexcept { return pool_.get(); }
    [[nodiscard]] const crypto::KeyStore& keys() const noexcept { return keys_; }
    [[nodiscard]] const crypto::CostModel& costs() const noexcept { return config_.costs; }
    [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
    /// ClusterConfig::recorder, or the cluster's own when none was supplied.
    [[nodiscard]] obs::Recorder& recorder() noexcept { return *recorder_; }

    [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(raw(id)); }
    [[nodiscard]] Node& node(std::uint32_t id) { return *nodes_.at(id); }
    [[nodiscard]] std::uint32_t node_count() const noexcept {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    /// Node currently hosting the primary of the master instance (per the
    /// placement rule: node (view + instance) mod N, instance 0).
    [[nodiscard]] NodeId master_primary_node() {
        return nodes_.front()->engine(Node::master_instance()).primary();
    }

    /// Crash-stops a node: the process falls silent and the fabric drops
    /// all traffic to and from it (counted as NIC drops).
    void crash_node(NodeId id);

    /// Reopens the fabric and restarts the node's process with empty
    /// volatile state; it rejoins via checkpoint state transfer.
    void restart_node(NodeId id);

private:
    ClusterConfig config_;
    // Declared before everything that records into it, so it outlives them.
    obs::Recorder own_recorder_;
    obs::Recorder* recorder_ = &own_recorder_;
    sim::Simulator simulator_;
    crypto::KeyStore keys_;
    // Destruction order is a non-issue: messages embed a shared reference to
    // the pool core, so slots outlive the pool handle itself if needed.
    std::unique_ptr<net::MessagePool> pool_;
    std::unique_ptr<net::Network> network_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace rbft::core
