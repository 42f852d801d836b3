// Message envelope: the self-describing byte form of one protocol message,
// used wherever a message leaves the shared-pointer world — the real-socket
// runtime's TCP frames.  It lives in runtime rather than net because it is
// a registry over every layer's message types (bft, rbft), and runtime may
// include them.
//
// Layout (little-endian, matching net/wire.hpp):
//   u8   from.kind   (0 = node, 1 = client)
//   u32  from.index
//   u16  message type (net::MsgType)
//   ...  the message's own encode()
//
// The sender identity travels *inside* the envelope rather than being
// inferred from the connection: TCP connections are unauthenticated plumbing
// and a receiving node verifies the claim cryptographically exactly as the
// simulator's Verification module does (MAC authenticators / signatures).
// A forged `from` therefore buys an attacker nothing the paper's Byzantine
// model does not already grant.
//
// decode_envelope() is the adversarial entry point of a real node — every
// byte is attacker-controlled.  It never throws; malformed or unsupported
// input yields ok == false and the transport quarantines the connection.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "net/message.hpp"

namespace rbft::runtime {

struct Envelope {
    net::Address from{};
    net::MessagePtr message;
};

/// Serializes `message` from `from` into an envelope payload.  Returns
/// nullopt for simulation-only message types that have no wire form
/// (Prime's signed traffic and FLOOD attack frames model cost, not bytes).
[[nodiscard]] std::optional<Bytes> encode_envelope(net::Address from,
                                                   const net::Message& message);

/// Parses an envelope payload.  Returns nullopt on any malformation:
/// unknown/unsupported type tag, truncated body, or trailing garbage.
[[nodiscard]] std::optional<Envelope> decode_envelope(BytesView payload);

}  // namespace rbft::runtime
