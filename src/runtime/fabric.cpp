#include "runtime/fabric.hpp"

#include <utility>

namespace rbft::runtime {

namespace {

/// All clients share one receive NIC at each node, mirroring the simulated
/// fabric (RBFT/Aardvark separate the client NIC from the node NICs, §V).
constexpr std::uint64_t kClientNicKey = std::uint64_t{1} << 32;

[[nodiscard]] std::uint64_t nic_key(net::Address remote) noexcept {
    return remote.kind == net::Address::Kind::kClient ? kClientNicKey : remote.index;
}

}  // namespace

SocketFabric::SocketFabric(sim::Simulator& simulator, TcpTransport& transport, ClusterSpec spec,
                           std::optional<NodeId> local_node)
    : simulator_(simulator), transport_(transport), spec_(std::move(spec)),
      local_node_(local_node) {
    transport_.set_frame_handler(
        [this](ConnId conn, Bytes payload) { handle_frame(conn, std::move(payload)); });
    transport_.set_closed_handler(
        [this](ConnId conn, bool poisoned) { handle_closed(conn, poisoned); });
    // Keep a dialed connection to every other node (node process) or to
    // every node (client process: requests go out on these, replies ride
    // them back).
    for (std::uint32_t i = 0; i < spec_.nodes.size(); ++i) {
        if (local_node_.has_value() && raw(*local_node_) == i) continue;
        transport_.add_peer(peer_key(net::Address::node(NodeId{i})), spec_.nodes[i].host,
                            spec_.nodes[i].port);
    }
}

void SocketFabric::register_node(NodeId id, Handler handler) {
    local_node_ = id;
    node_handler_ = std::move(handler);
}

void SocketFabric::register_client(ClientId id, Handler handler) {
    client_handlers_[raw(id)] = std::move(handler);
}

void SocketFabric::deliver_local(net::Address from, const net::MessagePtr& message) {
    // Hand the message to the simulator at the current instant so all
    // protocol code runs inside run_until(), exactly one execution domain.
    simulator_.schedule_at(simulator_.now(), [this, from, message] {
        ++stats_.envelopes_delivered;
        if (node_handler_.has_value()) {
            (*node_handler_)(from, message);
            return;
        }
        // Client driver process: every endpoint filters by its own id.
        for (auto& [id, handler] : client_handlers_) handler(from, message);
    });
}

void SocketFabric::send(net::Address from, net::Address to, net::MessagePtr message) {
    ++stats_.envelopes_sent;
    // Self-delivery short-circuits the wire, like the simulated fabric.
    const bool to_local_node = to.kind == net::Address::Kind::kNode && local_node_.has_value() &&
                               raw(*local_node_) == to.index;
    const bool to_local_client =
        to.kind == net::Address::Kind::kClient && client_handlers_.contains(to.index);
    if (to_local_node || to_local_client) {
        ++stats_.self_deliveries;
        deliver_local(from, message);
        return;
    }

    const auto bytes = encode_envelope(from, *message);
    if (!bytes.has_value()) {
        ++stats_.unencodable_dropped;
        return;
    }
    if (to.kind == net::Address::Kind::kNode) {
        (void)transport_.send_to_peer(peer_key(to), BytesView(bytes->data(), bytes->size()));
        return;
    }
    // Reply to a client: ride the client's inbound connection.
    auto it = sender_conn_.find(peer_key(to));
    if (it == sender_conn_.end() ||
        !transport_.send_on(it->second, BytesView(bytes->data(), bytes->size()))) {
        ++stats_.no_route_dropped;
    }
}

void SocketFabric::broadcast_to_nodes(net::Address from, const net::MessagePtr& message) {
    for (std::uint32_t i = 0; i < spec_.nodes.size(); ++i) {
        send(from, net::Address::node(NodeId{i}), message);
    }
}

net::Nic& SocketFabric::nic(NodeId /*owner*/, net::Address remote) {
    auto [it, inserted] = nics_.try_emplace(nic_key(remote), 1e9);
    return it->second;
}

void SocketFabric::handle_frame(ConnId conn, Bytes payload) {
    auto env = decode_envelope(BytesView(payload.data(), payload.size()));
    if (!env.has_value()) {
        ++stats_.decode_rejected;
        // Quarantine: close the sender's NIC (if the connection had claimed
        // an identity) and drop the connection — no resynchronization with
        // a peer that already sent garbage.
        if (auto bound = conn_sender_.find(conn); bound != conn_sender_.end()) {
            const bool is_client = (bound->second & kClientNicKey) != 0;
            const auto remote =
                is_client
                    ? net::Address::client(ClientId{static_cast<std::uint32_t>(bound->second)})
                    : net::Address::node(NodeId{static_cast<std::uint32_t>(bound->second)});
            nics_.try_emplace(nic_key(remote), 1e9)
                .first->second.close_for(simulator_.now(), quarantine_);
        }
        transport_.close_conn(conn, true);
        return;
    }

    // Bind the connection to its claimed sender (latest connection wins —
    // a restarted client's new connection replaces the dead one).
    const std::uint64_t sender = peer_key(env->from);
    conn_sender_[conn] = sender;
    sender_conn_[sender] = conn;

    // Honor administrative NIC closure (flood defense / quarantine).
    auto [nit, inserted] = nics_.try_emplace(nic_key(env->from), 1e9);
    net::Nic& in_nic = nit->second;
    if (in_nic.closed(simulator_.now())) {
        in_nic.count_drop();
        ++stats_.nic_closed_dropped;
        return;
    }
    (void)in_nic.serialize(simulator_.now(), payload.size());

    deliver_local(env->from, env->message);
}

void SocketFabric::handle_closed(ConnId conn, bool /*poisoned*/) {
    auto it = conn_sender_.find(conn);
    if (it == conn_sender_.end()) return;
    if (auto sit = sender_conn_.find(it->second);
        sit != sender_conn_.end() && sit->second == conn) {
        sender_conn_.erase(sit);
    }
    conn_sender_.erase(it);
}

}  // namespace rbft::runtime
