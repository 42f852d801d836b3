#include "runtime/envelope.hpp"

#include <memory>
#include <utility>

#include "bft/messages.hpp"
#include "net/wire.hpp"
#include "rbft/messages.hpp"

namespace rbft::runtime {

namespace {

using net::Address;
using net::Message;
using net::MessagePtr;
using net::MsgType;
using net::WireReader;
using net::WireWriter;

[[nodiscard]] constexpr std::uint8_t kind_byte(Address::Kind kind) noexcept {
    return kind == Address::Kind::kClient ? 1 : 0;
}

template <typename T>
void encode_body(WireWriter& w, const Message& message) {
    static_cast<const T&>(message).encode(w);
}

template <typename T>
[[nodiscard]] MessagePtr decode_body(WireReader& r) {
    return std::make_shared<T>(T::decode(r));
}

}  // namespace

std::optional<Bytes> encode_envelope(Address from, const Message& message) {
    WireWriter w;
    w.u8(kind_byte(from.kind));
    w.u32(from.index);
    w.u16(static_cast<std::uint16_t>(message.type()));
    switch (message.type()) {
        case MsgType::kRequest:
            encode_body<bft::RequestMsg>(w, message);
            break;
        case MsgType::kReply:
            encode_body<bft::ReplyMsg>(w, message);
            break;
        case MsgType::kPropagate:
            encode_body<core::PropagateMsg>(w, message);
            break;
        case MsgType::kPrePrepare:
            encode_body<bft::PrePrepareMsg>(w, message);
            break;
        case MsgType::kPrepare:
        case MsgType::kCommit:
            encode_body<bft::PhaseMsg>(w, message);
            break;
        case MsgType::kCheckpoint:
            encode_body<bft::CheckpointMsg>(w, message);
            break;
        case MsgType::kViewChange:
            encode_body<bft::ViewChangeMsg>(w, message);
            break;
        case MsgType::kNewView:
            encode_body<bft::NewViewMsg>(w, message);
            break;
        case MsgType::kInstanceChange:
            encode_body<core::InstanceChangeMsg>(w, message);
            break;
        case MsgType::kPoRequest:
        case MsgType::kPoAck:
        case MsgType::kPrimeOrder:
        case MsgType::kRttProbe:
        case MsgType::kRttEcho:
        case MsgType::kPrimeSuspect:
        case MsgType::kFlood:
            // Simulation-only cost models without a byte-level wire format.
            return std::nullopt;
    }
    return w.take();
}

std::optional<Envelope> decode_envelope(BytesView payload) {
    WireReader r(payload);
    const std::uint8_t kind = r.u8();
    const std::uint32_t index = r.u32();
    const std::uint16_t type_tag = r.u16();
    if (!r.ok() || kind > 1) return std::nullopt;

    Envelope env;
    env.from = kind == 1 ? Address::client(ClientId{index}) : Address::node(NodeId{index});

    const auto type = static_cast<MsgType>(type_tag);
    switch (type) {
        case MsgType::kRequest:
            env.message = decode_body<bft::RequestMsg>(r);
            break;
        case MsgType::kReply:
            env.message = decode_body<bft::ReplyMsg>(r);
            break;
        case MsgType::kPropagate:
            env.message = decode_body<core::PropagateMsg>(r);
            break;
        case MsgType::kPrePrepare:
            env.message = decode_body<bft::PrePrepareMsg>(r);
            break;
        case MsgType::kPrepare:
        case MsgType::kCommit:
            env.message = decode_body<bft::PhaseMsg>(r);
            break;
        case MsgType::kCheckpoint:
            env.message = decode_body<bft::CheckpointMsg>(r);
            break;
        case MsgType::kViewChange:
            env.message = decode_body<bft::ViewChangeMsg>(r);
            break;
        case MsgType::kNewView:
            env.message = decode_body<bft::NewViewMsg>(r);
            break;
        case MsgType::kInstanceChange:
            env.message = decode_body<core::InstanceChangeMsg>(r);
            break;
        case MsgType::kPoRequest:
        case MsgType::kPoAck:
        case MsgType::kPrimeOrder:
        case MsgType::kRttProbe:
        case MsgType::kRttEcho:
        case MsgType::kPrimeSuspect:
        case MsgType::kFlood:
            return std::nullopt;
    }
    // A type tag outside the enum falls through every case with a null
    // message; reject it alongside truncations and trailing garbage.
    if (env.message == nullptr || !r.ok() || !r.exhausted()) return std::nullopt;

    // The decoded phase must agree with the outer tag, or a PREPARE could
    // masquerade as a COMMIT to a quorum counter.
    if (env.message->type() != type) return std::nullopt;
    return env;
}

}  // namespace rbft::runtime
