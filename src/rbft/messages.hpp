// RBFT-specific messages: PROPAGATE (request dissemination, §IV-B step 2)
// and INSTANCE_CHANGE (§IV-D).
#pragma once

#include <cstdint>
#include <string_view>

#include "bft/messages.hpp"
#include "net/message.hpp"
#include "net/wire.hpp"

namespace rbft::core {

/// 〈PROPAGATE, 〈REQUEST…〉σc, i〉~μi — a node forwards a verified client
/// request to all other nodes so that every correct node eventually hands
/// the same requests to its local replicas.
class PropagateMsg final : public net::Message {
public:
    /// The embedded (signed) client request.
    std::shared_ptr<const bft::RequestMsg> request;
    NodeId sender{};
    crypto::MacAuthenticator auth{};
    /// Byzantine-node lever: entries failing verification at these nodes.
    std::uint64_t corrupt_mac_mask = 0;

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kPropagate; }
    [[nodiscard]] std::string_view name() const noexcept override { return "PROPAGATE"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        const std::size_t req = request ? request->wire_size() : 0;
        return net::kFrameHeaderBytes + req + 4 +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    /// Compares the embedded request by value, not by pointer.
    bool operator==(const PropagateMsg& o) const {
        return (request == o.request || (request && o.request && *request == *o.request)) &&
               sender == o.sender && auth == o.auth && corrupt_mac_mask == o.corrupt_mac_mask;
    }

    void encode(net::WireWriter& w) const {
        request->encode(w);
        w.u32(raw(sender));
        w.u32(static_cast<std::uint32_t>(auth.macs.size()));
        for (const auto& m : auth.macs) w.raw(BytesView(m.bytes.data(), m.bytes.size()));
        w.u64(corrupt_mac_mask);
    }

    static PropagateMsg decode(net::WireReader& r) {
        PropagateMsg m;
        m.request = std::make_shared<bft::RequestMsg>(bft::RequestMsg::decode(r));
        m.sender = NodeId{r.u32()};
        // The authenticator principal is not on the wire (it is implied by
        // the sender field); the MAC vector is bounded by what is left so
        // malformed input cannot force a huge alloc.
        m.auth.sender = crypto::Principal::node(m.sender);
        const std::uint32_t count = r.u32();
        if (static_cast<std::size_t>(count) * 16 <= r.remaining()) {
            m.auth.macs.resize(count);
            for (auto& mac : m.auth.macs) {
                for (auto& byte : mac.bytes) byte = r.u8();
            }
        }
        m.corrupt_mac_mask = r.u64();
        return m;
    }
};

/// 〈INSTANCE_CHANGE, cpi, i〉~μi — vote to replace every instance's primary.
class InstanceChangeMsg final : public net::Message {
public:
    /// The instance-change round this vote applies to (counter cpi, §IV-D).
    std::uint64_t cpi = 0;
    NodeId sender{};
    crypto::MacAuthenticator auth{};

    [[nodiscard]] net::MsgType type() const noexcept override {
        return net::MsgType::kInstanceChange;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "INSTANCE-CHANGE"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 8 + 4 +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    bool operator==(const InstanceChangeMsg&) const = default;

    void encode(net::WireWriter& w) const {
        w.u64(cpi);
        w.u32(raw(sender));
        w.u32(static_cast<std::uint32_t>(auth.macs.size()));
        for (const auto& m : auth.macs) w.raw(BytesView(m.bytes.data(), m.bytes.size()));
    }

    static InstanceChangeMsg decode(net::WireReader& r) {
        InstanceChangeMsg m;
        m.cpi = r.u64();
        m.sender = NodeId{r.u32()};
        m.auth.sender = crypto::Principal::node(m.sender);
        const std::uint32_t count = r.u32();
        if (static_cast<std::size_t>(count) * 16 <= r.remaining()) {
            m.auth.macs.resize(count);
            for (auto& mac : m.auth.macs) {
                for (auto& byte : mac.bytes) byte = r.u8();
            }
        }
        return m;
    }
};

}  // namespace rbft::core
