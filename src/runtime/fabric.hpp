// SocketFabric: the net::Fabric implementation backed by real TCP.
//
// One SocketFabric per OS process.  Local endpoints (this process's node,
// or the client driver's ClientEndpoints) register exactly as they do on
// the simulated net::Network; remote addresses resolve to TcpTransport
// peers (nodes dial each other's listen ports) or to bound inbound
// connections (a reply to a client rides the connection that client's
// request arrived on, so clients never listen).
//
// The process keeps running a real sim::Simulator for its timers, so
// self-delivery short-circuits the wire by scheduling the handler at the
// current instant — the same semantics the simulated fabric gives
// broadcast-to-self.
//
// Adversarial input handling: every inbound frame is decoded with
// decode_envelope (never trusts a byte); a connection whose stream
// fails framing or envelope decoding is poisoned — closed immediately —
// and, when it had already claimed a sender identity, that identity's
// receive NIC is administratively closed for `quarantine` (the same
// Nic::close_for mechanism the protocol's flood defense uses, §V).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/fabric.hpp"
#include "runtime/config.hpp"
#include "runtime/envelope.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"

namespace rbft::runtime {

struct FabricStats {
    std::uint64_t envelopes_sent = 0;
    std::uint64_t envelopes_delivered = 0;
    std::uint64_t self_deliveries = 0;
    /// Sends of sim-only message types (no wire form).
    std::uint64_t unencodable_dropped = 0;
    /// Sends to a client with no live inbound connection.
    std::uint64_t no_route_dropped = 0;
    /// Inbound frames that failed envelope decoding.
    std::uint64_t decode_rejected = 0;
    /// Inbound envelopes dropped because the sender's NIC was closed
    /// (protocol flood defense or transport quarantine).
    std::uint64_t nic_closed_dropped = 0;
};

class SocketFabric final : public net::Fabric {
public:
    /// `spec` names every node's listen address; `local_node` (if set) is
    /// the node this process hosts — its peers get dialed, and inbound
    /// node-type messages are delivered to it.  Client-only processes pass
    /// nullopt and dial all nodes.
    SocketFabric(sim::Simulator& simulator, TcpTransport& transport, ClusterSpec spec,
                 std::optional<NodeId> local_node);

    // -- net::Fabric ---------------------------------------------------------
    void register_node(NodeId id, Handler handler) override;
    void register_client(ClientId id, Handler handler) override;
    void send(net::Address from, net::Address to, net::MessagePtr message) override;
    void broadcast_to_nodes(net::Address from, const net::MessagePtr& message) override;
    [[nodiscard]] net::Nic& nic(NodeId owner, net::Address remote) override;

    [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }
    /// How long a poisoned connection's claimed sender stays quarantined.
    void set_quarantine(Duration d) noexcept { quarantine_ = d; }

private:
    void handle_frame(ConnId conn, Bytes payload);
    void handle_closed(ConnId conn, bool poisoned);
    void deliver_local(net::Address from, const net::MessagePtr& message);
    [[nodiscard]] static std::uint64_t peer_key(net::Address a) noexcept {
        return (a.kind == net::Address::Kind::kClient ? (std::uint64_t{1} << 32) : 0) | a.index;
    }

    sim::Simulator& simulator_;
    TcpTransport& transport_;
    ClusterSpec spec_;
    std::optional<NodeId> local_node_;
    std::optional<Handler> node_handler_;
    std::map<std::uint32_t, Handler> client_handlers_;
    /// Sender identity each inbound connection has claimed (first valid
    /// envelope binds it; latest connection wins for reply routing).
    std::map<ConnId, std::uint64_t> conn_sender_;
    std::map<std::uint64_t, ConnId> sender_conn_;
    /// Receive NICs, lazily created per remote identity (all clients share
    /// one, mirroring the simulated fabric's client NIC).
    std::map<std::uint64_t, net::Nic> nics_;
    Duration quarantine_ = seconds(2.0);
    FabricStats stats_;
};

}  // namespace rbft::runtime
