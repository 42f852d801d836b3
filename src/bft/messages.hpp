// Protocol messages shared by every BFT protocol in this repository:
// client REQUEST/REPLY and the PBFT-style three-phase ordering vocabulary
// (PRE-PREPARE, PREPARE, COMMIT), plus CHECKPOINT and the view-change
// messages used by the instance engine.
//
// Fidelity notes (paper §IV-B):
//  * REQUEST = 〈〈REQUEST, o, rid, c〉σc, c〉~μc — signed by the client, then
//    MAC-authenticated for all nodes.
//  * PRE-PREPARE carries only request *identifiers* (client id, request id,
//    digest) unless `embedded_payload_bytes` > 0, which models protocols
//    (Aardvark, or RBFT's order-full-requests ablation) that order whole
//    request bodies.
//  * Byzantine behaviours are modeled by explicit corruption fields
//    (corrupt_sig, corrupt_mac_mask): a corrupted entry fails verification
//    at the targeted receiver exactly as a forged byte-string would, while
//    keeping the simulation inspectable.
//
// Every wire type defaults operator==, field by field, so the round-trip
// fuzz (tests/test_fuzz_decode.cpp) catches a field that encode or decode
// leaves out.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/keystore.hpp"
#include "net/message.hpp"
#include "net/wire.hpp"

namespace rbft::bft {

/// Identifier triple ordered by protocol instances instead of request
/// bodies (§IV-B step 2: "the replicas do not order the whole request but
/// only its identifiers").
struct RequestRef {
    ClientId client{};
    RequestId rid{};
    Digest digest{};
    std::uint32_t payload_bytes = 0;

    auto operator<=>(const RequestRef&) const = default;

    [[nodiscard]] RequestKey key() const noexcept { return {client, rid}; }

    static constexpr std::size_t kWireBytes = 4 + 8 + 32 + 4;
    void encode(net::WireWriter& w) const;
    static RequestRef decode(net::WireReader& r);
};

/// FNV-1a over the request identities of a batch: the content fingerprint
/// used by the commit safety log and the agreement oracle (one formula,
/// defined once).
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;
inline constexpr std::uint64_t kFingerprintPrime = 1099511628211ULL;

[[nodiscard]] inline std::uint64_t fingerprint_refs(const std::vector<RequestRef>& refs) {
    std::uint64_t h = kFingerprintSeed;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= kFingerprintPrime;
    };
    for (const auto& ref : refs) {
        mix(raw(ref.client));
        mix(raw(ref.rid));
    }
    return h;
}

// ---------------------------------------------------------------------------

class RequestMsg final : public net::Message {
public:
    ClientId client{};
    RequestId rid{};
    Bytes payload;
    /// Simulated service-execution cost of this operation (workload input;
    /// e.g. the Prime attack uses 1 ms requests vs 0.1 ms normal ones).
    Duration exec_cost{};
    /// Digest over (client, rid, payload); computed by the client library.
    Digest digest{};
    crypto::Signature sig{};
    crypto::MacAuthenticator auth{};

    // --- Byzantine-client levers (attack configuration, not wire data that
    // an honest implementation would parse): ---
    /// Signature fails verification at every node.
    bool corrupt_sig = false;
    /// Bit i set ⇒ the authenticator entry for node i fails verification.
    std::uint64_t corrupt_mac_mask = 0;

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kRequest; }
    [[nodiscard]] std::string_view name() const noexcept override { return "REQUEST"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 4 + 8 + 4 + payload.size() + net::kSignatureBytes +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    /// Digest of the bytes covered by the client signature (operation +
    /// ids), streamed through an incremental hasher — no buffer is
    /// materialized.  `stats` (optional) receives the buffer-churn
    /// accounting (zero by construction on this path).
    [[nodiscard]] Digest signed_digest(net::WireStats* stats = nullptr) const;

    bool operator==(const RequestMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static RequestMsg decode(net::WireReader& r);
};

class ReplyMsg final : public net::Message {
public:
    ClientId client{};
    RequestId rid{};
    NodeId node{};
    Bytes result;
    crypto::Mac mac{};

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kReply; }
    [[nodiscard]] std::string_view name() const noexcept override { return "REPLY"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 4 + 8 + 4 + 4 + result.size() + net::kMacBytes;
    }

    bool operator==(const ReplyMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static ReplyMsg decode(net::WireReader& r);
};

// ---------------------------------------------------------------------------
// Three-phase ordering (one protocol instance).

class PrePrepareMsg final : public net::Message {
public:
    InstanceId instance{};
    ViewId view{};
    SeqNum seq{};
    std::vector<RequestRef> batch;
    /// Digest over the batch contents (what PREPARE/COMMIT refer to).
    Digest batch_digest{};
    /// > 0 when the protocol orders full request bodies: total payload bytes
    /// embedded in this message (counted in wire_size and hashing costs).
    std::uint64_t embedded_payload_bytes = 0;
    crypto::MacAuthenticator auth{};
    /// Byzantine primary lever: authenticator fails at the nodes in the mask.
    std::uint64_t corrupt_mac_mask = 0;

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kPrePrepare; }
    [[nodiscard]] std::string_view name() const noexcept override { return "PRE-PREPARE"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 4 + 8 + 8 + 4 + batch.size() * RequestRef::kWireBytes + 32 +
               embedded_payload_bytes +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    bool operator==(const PrePrepareMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static PrePrepareMsg decode(net::WireReader& r);
};

/// PREPARE and COMMIT share a layout; `phase` distinguishes them.
class PhaseMsg final : public net::Message {
public:
    enum class Phase : std::uint8_t { kPrepare, kCommit };

    Phase phase = Phase::kPrepare;
    InstanceId instance{};
    ViewId view{};
    SeqNum seq{};
    Digest batch_digest{};
    NodeId replica{};
    crypto::MacAuthenticator auth{};
    std::uint64_t corrupt_mac_mask = 0;

    [[nodiscard]] net::MsgType type() const noexcept override {
        return phase == Phase::kPrepare ? net::MsgType::kPrepare : net::MsgType::kCommit;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return phase == Phase::kPrepare ? "PREPARE" : "COMMIT";
    }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 1 + 4 + 8 + 8 + 32 + 4 +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    bool operator==(const PhaseMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static PhaseMsg decode(net::WireReader& r);
};

// ---------------------------------------------------------------------------
// Checkpointing and view change.

class CheckpointMsg final : public net::Message {
public:
    InstanceId instance{};
    SeqNum seq{};
    Digest state_digest{};
    NodeId replica{};
    // Piggybacked sender status: the sender's current view in this instance
    // and its node-level protocol-instance-change counter.  A replica that
    // recovers from a crash uses f+1 matching reports to rejoin the view and
    // cpi the correct quorum has moved on to (paper §IV-C: recovery rides on
    // the checkpoint mechanism).
    ViewId view{};
    std::uint64_t cpi = 0;
    /// Highest sequence number the sender has delivered in this instance.
    /// A recovering primary resumes proposing *after* the quorum's history
    /// instead of re-using sequence numbers it no longer remembers issuing.
    std::uint64_t executed = 0;
    crypto::MacAuthenticator auth{};

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kCheckpoint; }
    [[nodiscard]] std::string_view name() const noexcept override { return "CHECKPOINT"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        return net::kFrameHeaderBytes + 4 + 8 + 32 + 4 + 8 + 8 + 8 +
               net::authenticator_bytes(static_cast<std::uint32_t>(auth.macs.size()));
    }

    bool operator==(const CheckpointMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static CheckpointMsg decode(net::WireReader& r);
};

/// Proof that a batch prepared at a replica (carried in VIEW-CHANGE so the
/// new primary can re-propose it).
struct PreparedProof {
    SeqNum seq{};
    ViewId view{};
    Digest batch_digest{};
    std::vector<RequestRef> batch;

    static constexpr std::size_t kFixedWireBytes = 8 + 8 + 32 + 4;
    [[nodiscard]] std::size_t wire_bytes() const noexcept {
        return kFixedWireBytes + batch.size() * RequestRef::kWireBytes;
    }
    bool operator==(const PreparedProof&) const = default;
    void encode(net::WireWriter& w) const;
    static PreparedProof decode(net::WireReader& r);
};

class ViewChangeMsg final : public net::Message {
public:
    InstanceId instance{};
    ViewId new_view{};
    SeqNum last_stable{};
    std::vector<PreparedProof> prepared;
    NodeId replica{};
    /// View changes are signed (they must be transferable proofs).
    crypto::Signature sig{};

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kViewChange; }
    [[nodiscard]] std::string_view name() const noexcept override { return "VIEW-CHANGE"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        std::size_t proofs = 0;
        for (const auto& p : prepared) proofs += p.wire_bytes();
        return net::kFrameHeaderBytes + 4 + 8 + 8 + 4 + 4 + proofs + net::kSignatureBytes;
    }

    /// Streaming digest of the signature-covered fields (no buffer).
    [[nodiscard]] Digest signed_digest() const;

    bool operator==(const ViewChangeMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static ViewChangeMsg decode(net::WireReader& r);
};

class NewViewMsg final : public net::Message {
public:
    InstanceId instance{};
    ViewId view{};
    /// Digests of the 2f+1 VIEW-CHANGE messages justifying this view.
    std::vector<Digest> view_change_digests;
    /// Batches re-proposed in the new view, in sequence order.
    std::vector<PreparedProof> reproposals;
    NodeId primary{};
    crypto::Signature sig{};

    [[nodiscard]] net::MsgType type() const noexcept override { return net::MsgType::kNewView; }
    [[nodiscard]] std::string_view name() const noexcept override { return "NEW-VIEW"; }
    [[nodiscard]] std::size_t wire_size() const noexcept override {
        std::size_t proofs = 0;
        for (const auto& p : reproposals) proofs += p.wire_bytes();
        return net::kFrameHeaderBytes + 4 + 8 + 4 + view_change_digests.size() * 32 + 4 + proofs +
               4 + net::kSignatureBytes;
    }

    /// Streaming digest of the signature-covered fields (no buffer).
    [[nodiscard]] Digest signed_digest() const;

    bool operator==(const NewViewMsg&) const = default;
    void encode(net::WireWriter& w) const;
    static NewViewMsg decode(net::WireReader& r);
};

/// An ordered batch handed back from a protocol-instance replica to its
/// node (§IV-B step 5: "a replica gives back the ordered request to the
/// node it is running on").
struct OrderedBatch {
    InstanceId instance{};
    ViewId view{};
    SeqNum seq{};
    std::vector<RequestRef> requests;
};

}  // namespace rbft::bft
