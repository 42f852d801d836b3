// Message base type and addressing.
//
// All protocol messages derive from net::Message.  In-simulator delivery
// passes shared pointers (zero-copy, like a kernel handing a received
// buffer to the application), while wire_size() drives link transmission
// time, NIC bandwidth and per-byte crypto costs.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "crypto/keystore.hpp"

namespace rbft::net {

/// Network address: a node or a client (the keying Principal doubles as the
/// address space, as both identify the same physical endpoints).
using Address = crypto::Principal;

/// Message kind tags.  One flat enum across protocols keeps dispatch cheap
/// and makes traces easy to read.
enum class MsgType : std::uint16_t {
    // Client interaction (paper §IV-B steps 1 and 6)
    kRequest = 1,
    kReply = 2,
    // RBFT request dissemination (step 2)
    kPropagate = 10,
    // PBFT-style ordering, used by every protocol instance (steps 3-5)
    kPrePrepare = 20,
    kPrepare = 21,
    kCommit = 22,
    // Checkpointing and view changes (engine internals)
    kCheckpoint = 30,
    kViewChange = 31,
    kNewView = 32,
    // RBFT protocol instance change (§IV-D)
    kInstanceChange = 40,
    // Prime-specific (§III-A)
    kPoRequest = 50,
    kPoAck = 51,
    kPrimeOrder = 52,
    kRttProbe = 53,
    kRttEcho = 54,
    kPrimeSuspect = 55,
    // Attack traffic: syntactically valid frame, semantically garbage
    kFlood = 60,
};

class Message {
public:
    virtual ~Message() = default;

    [[nodiscard]] virtual MsgType type() const noexcept = 0;
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Size of the encoded message in bytes (headers + payload + auth).
    [[nodiscard]] virtual std::size_t wire_size() const noexcept = 0;

    /// The base holds no state, so this is true for any two messages; it
    /// exists so each concrete message can default its own operator==.
    /// Compare concrete message types, not Message references.
    bool operator==(const Message&) const = default;
};

using MessagePtr = std::shared_ptr<const Message>;

/// Fixed per-message framing: type tag + length.
inline constexpr std::size_t kFrameHeaderBytes = 6;
/// Size of a MAC on the wire.
inline constexpr std::size_t kMacBytes = 16;
/// Size of a signature on the wire (RSA-1024-class).
inline constexpr std::size_t kSignatureBytes = 128;
/// Size of one authenticator entry (MAC) — total = entries * kMacBytes.
[[nodiscard]] constexpr std::size_t authenticator_bytes(std::uint32_t nodes) noexcept {
    return static_cast<std::size_t>(nodes) * kMacBytes;
}

}  // namespace rbft::net
