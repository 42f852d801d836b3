#include "rbft/cluster.hpp"

namespace rbft::core {

Cluster::Cluster(ClusterConfig config, ServiceFactory service_factory)
    : config_(config), keys_(config.seed) {
    if (config_.recorder) recorder_ = config_.recorder;
    if (config_.pooled_messages) pool_ = std::make_unique<net::MessagePool>();
    const auto channel =
        config_.use_udp ? net::ChannelParams::udp() : net::ChannelParams::tcp();
    network_ = std::make_unique<net::Network>(simulator_, config_.n(), Rng(config_.seed),
                                              channel, channel);
    simulator_.set_metrics(&recorder_->metrics());
    simulator_.set_profiler(recorder_->profiler());
    network_->set_recorder(recorder_);
    simulator_.set_logger(config_.logger);

    for (std::uint32_t i = 0; i < config_.n(); ++i) {
        NodeConfig nc;
        nc.id = NodeId{i};
        nc.n = config_.n();
        nc.f = config_.f;
        nc.batch_max = config_.batch_max;
        nc.batch_delay = config_.batch_delay;
        nc.order_full_requests = config_.order_full_requests;
        nc.checkpoint_interval = config_.checkpoint_interval;
        nc.engine_retry_interval = config_.engine_retry_interval;
        nc.monitoring = config_.monitoring;
        nc.flood_defense = config_.flood_defense;
        nc.instances_override = config_.instances_override;
        nc.engine_test_faults = config_.engine_test_faults;
        nc.backend = config_.backend;
        nc.recorder = recorder_;
        nc.message_pool = pool_.get();
        nodes_.push_back(std::make_unique<Node>(nc, simulator_, *network_, keys_,
                                                config_.costs, service_factory()));
        Node* node = nodes_.back().get();
        network_->register_node(NodeId{i}, [node](net::Address from, const net::MessagePtr& m) {
            node->on_message(from, m);
        });
    }
}

void Cluster::start() {
    log_info(config_.logger, "cluster",
             "starting " + std::to_string(config_.n()) + " nodes (f=" +
                 std::to_string(config_.f) + ", seed=" + std::to_string(config_.seed) + ")");
    for (auto& node : nodes_) node->start();
}

void Cluster::crash_node(NodeId id) {
    log_info(config_.logger, "cluster", "crash node " + std::to_string(raw(id)));
    node(id).crash();
    network_->set_node_down(id, true);
}

void Cluster::restart_node(NodeId id) {
    log_info(config_.logger, "cluster", "restart node " + std::to_string(raw(id)));
    network_->set_node_down(id, false);
    node(id).restart();
}

}  // namespace rbft::core
