// RealNode: one OS process hosting one unmodified rbft::core::Node over
// real sockets.
//
// Assembly (the real-world twin of core::Cluster, which wires the same
// objects to the simulated fabric):
//   SteadyClock -> sim::Simulator (timers) -> WallClockExecutor
//   TcpTransport (framed TCP, reconnect/backoff) -> SocketFabric
//   KeyStore(spec.seed)  — every process derives identical key material,
//   standing in for provisioning
//   obs::Recorder (the node's counters)
//   core::Node(NodeConfig from spec)
//
// The node appends its master-instance commit log to `commitlog_path` as
// "<seq> <fingerprint-hex>" lines, flushed per entry, so a kill-recovery
// harness can compare committed prefixes across processes and against a
// same-workload simulator run byte-for-byte.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "obs/recorder.hpp"
#include "rbft/node.hpp"
#include "runtime/clock.hpp"
#include "runtime/config.hpp"
#include "runtime/executor.hpp"
#include "runtime/fabric.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"

namespace rbft::runtime {

/// Builds the NodeConfig a ClusterSpec implies for node `id` — shared by
/// the real binary and the simulator reference run so both host an
/// identically-configured protocol.
[[nodiscard]] core::NodeConfig node_config_from_spec(const ClusterSpec& spec, NodeId id);

/// The crypto cost model a spec implies: "zero" charges nothing in
/// sim-time (real CPUs pay real costs), "paper" charges the calibrated
/// Xeon costs (for apples-to-apples sim comparisons).
[[nodiscard]] crypto::CostModel cost_model_from_spec(const ClusterSpec& spec);

class RealNode {
public:
    RealNode(ClusterSpec spec, NodeId id, std::string commitlog_path);

    /// Binds the listen socket and dials the peers.  False + `error` on
    /// failure (e.g. port in use).
    [[nodiscard]] bool start(std::string* error);

    /// Runs until `request_stop()`; services sockets, timers and the
    /// commit-log file.
    void run();
    /// Runs for `d` of wall time (tests/bounded drivers).
    void run_for(Duration d);
    void request_stop() noexcept { executor_.request_stop(); }

    [[nodiscard]] core::Node& node() noexcept { return *node_; }
    [[nodiscard]] const SocketFabric& fabric() const noexcept { return fabric_; }
    [[nodiscard]] const TcpTransport& transport() const noexcept { return transport_; }

private:
    void append_commitlog();

    ClusterSpec spec_;
    NodeId id_;
    SteadyClock clock_;
    sim::Simulator simulator_;
    crypto::KeyStore keys_;
    crypto::CostModel costs_;
    TcpTransport transport_;
    SocketFabric fabric_;
    obs::Recorder recorder_;
    std::unique_ptr<core::Node> node_;
    WallClockExecutor executor_;
    std::string commitlog_path_;
    std::ofstream commitlog_;
    std::size_t commitlog_written_ = 0;
};

}  // namespace rbft::runtime
