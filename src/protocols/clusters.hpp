// Cluster assembly for the baseline protocols, mirroring core::Cluster so
// the experiment harness and benches can drive any protocol uniformly.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "protocols/aardvark/aardvark.hpp"
#include "protocols/prime/prime.hpp"
#include "protocols/spinning/spinning.hpp"
#include "rbft/service.hpp"
#include "sim/simulator.hpp"

namespace rbft::protocols {

/// Generic 3f+1-node cluster for a baseline protocol.  NodeT must provide
/// on_message(Address, MessagePtr) and start(); ConfigT must expose
/// assign_topology(NodeId, n, f).  `pooled_messages` is
/// core::ClusterConfig::pooled_messages for the baselines.
template <typename NodeT, typename ConfigT>
class ProtocolCluster {
public:
    using ServiceFactory = std::function<std::unique_ptr<core::Service>()>;

    ProtocolCluster(std::uint32_t f, std::uint64_t seed, ConfigT node_template,
                    net::ChannelParams channel, crypto::CostModel costs = {},
                    ServiceFactory service_factory =
                        [] { return std::make_unique<core::NullService>(); },
                    bool pooled_messages = true)
        : f_(f), n_(cluster_size(f)), keys_(seed), costs_(costs) {
        if (pooled_messages) pool_ = std::make_unique<net::MessagePool>();
        network_ = std::make_unique<net::Network>(simulator_, n_, Rng(seed), channel, channel);
        // The template's recorder (directly for Prime, nested in the shared
        // BaselineConfig for the others), else the cluster's own.
        Logger* logger = nullptr;
        if constexpr (requires { node_template.recorder; }) {
            if (node_template.recorder) recorder_ = node_template.recorder;
            logger = node_template.logger;
        } else {
            if (node_template.base.recorder) recorder_ = node_template.base.recorder;
            logger = node_template.base.logger;
        }
        simulator_.set_metrics(&recorder_->metrics());
        simulator_.set_profiler(recorder_->profiler());
        network_->set_recorder(recorder_);
        simulator_.set_logger(logger);
        for (std::uint32_t i = 0; i < n_; ++i) {
            ConfigT cfg = node_template;
            cfg.assign_topology(NodeId{i}, n_, f_);
            if constexpr (requires { cfg.message_pool; }) {
                cfg.recorder = recorder_;
                cfg.message_pool = pool_.get();
            } else {
                cfg.base.recorder = recorder_;
                cfg.base.message_pool = pool_.get();
            }
            nodes_.push_back(std::make_unique<NodeT>(cfg, simulator_, *network_, keys_, costs_,
                                                     service_factory()));
            NodeT* node = nodes_.back().get();
            network_->register_node(NodeId{i},
                                    [node](net::Address from, const net::MessagePtr& m) {
                                        node->on_message(from, m);
                                    });
        }
    }

    void start() {
        for (auto& node : nodes_) node->start();
    }

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] net::Network& network() noexcept { return *network_; }
    [[nodiscard]] net::MessagePool* message_pool() noexcept { return pool_.get(); }
    [[nodiscard]] const crypto::KeyStore& keys() const noexcept { return keys_; }
    /// The template's recorder, or the cluster's own when it has none.
    [[nodiscard]] obs::Recorder& recorder() noexcept { return *recorder_; }
    [[nodiscard]] NodeT& node(std::uint32_t i) { return *nodes_.at(i); }
    [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t f() const noexcept { return f_; }

private:
    // Declared before everything that records into it, so it outlives them.
    obs::Recorder own_recorder_;
    obs::Recorder* recorder_ = &own_recorder_;
    std::uint32_t f_;
    std::uint32_t n_;
    sim::Simulator simulator_;
    crypto::KeyStore keys_;
    crypto::CostModel costs_;
    std::unique_ptr<net::MessagePool> pool_;
    std::unique_ptr<net::Network> network_;
    std::vector<std::unique_ptr<NodeT>> nodes_;
};

using AardvarkCluster = ProtocolCluster<AardvarkNode, AardvarkConfig>;
using SpinningCluster = ProtocolCluster<SpinningNode, SpinningConfig>;
using PrimeCluster = ProtocolCluster<prime::PrimeNode, prime::PrimeConfig>;

/// Default channel per protocol: Spinning uses UDP multicast (§VI-B), the
/// others TCP.
[[nodiscard]] inline net::ChannelParams default_channel_aardvark() {
    return net::ChannelParams::tcp();
}
[[nodiscard]] inline net::ChannelParams default_channel_spinning() {
    return net::ChannelParams::udp();
}
[[nodiscard]] inline net::ChannelParams default_channel_prime() {
    return net::ChannelParams::tcp();
}

}  // namespace rbft::protocols
