// Robustness of the wire decoders against adversarial input: random bytes,
// truncations of valid encodings, and bit flips must never crash, hang or
// allocate unboundedly — a Byzantine peer controls every byte it sends.
//
// Also pins the wire format itself: for every message type in
// bft/messages.hpp and rbft/messages.hpp, encode → decode → encode must
// reproduce the original bytes exactly (the property the flight recorder,
// replay artifacts and cross-node digests all rely on), and the decoded
// message must equal the original under its defaulted operator==.  Every
// make_* below sets every field to a non-default value, so a field that
// encode or decode leaves out comes back different.
#include <gtest/gtest.h>

#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "rbft/messages.hpp"

namespace rbft::bft {
namespace {

crypto::KeyStore& keys() {
    static crypto::KeyStore ks(5);
    return ks;
}

Bytes random_bytes(Rng& rng, std::size_t size) {
    Bytes out(size);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
    return out;
}

Digest random_digest(Rng& rng) {
    Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    return d;
}

RequestRef random_ref(Rng& rng) {
    RequestRef ref;
    ref.client = ClientId{static_cast<std::uint32_t>(1 + rng.next_below(15))};
    ref.rid = RequestId{rng.next_u64()};
    ref.digest = random_digest(rng);
    ref.payload_bytes = static_cast<std::uint32_t>(1 + rng.next_below(4095));
    return ref;
}

// -- Representative, fully populated instances of every wire message ------

RequestMsg make_request(Rng& rng) {
    RequestMsg m;
    m.client = ClientId{1};
    m.rid = RequestId{rng.next_u64()};
    m.payload = random_bytes(rng, 48);
    m.exec_cost = microseconds(100.0);
    m.digest = m.signed_digest();
    m.sig = keys().sign(crypto::Principal::client(ClientId{1}), m.digest);
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::client(ClientId{1}), 4,
                                        BytesView(m.digest.bytes.data(), 32));
    m.corrupt_sig = true;
    m.corrupt_mac_mask = 1 + rng.next_below(15);
    return m;
}

ReplyMsg make_reply(Rng& rng) {
    ReplyMsg m;
    m.client = ClientId{2};
    m.rid = RequestId{rng.next_u64()};
    m.node = NodeId{3};
    m.result = random_bytes(rng, 24);
    for (auto& b : m.mac.bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    return m;
}

PrePrepareMsg make_preprepare(Rng& rng) {
    PrePrepareMsg m;
    m.instance = InstanceId{1};
    m.view = ViewId{2};
    m.seq = SeqNum{3};
    for (int i = 0; i < 5; ++i) m.batch.push_back(random_ref(rng));
    m.batch_digest = random_digest(rng);
    m.embedded_payload_bytes = 1 + rng.next_below(1 << 20);
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::node(NodeId{0}), 4,
                                        BytesView(m.batch_digest.bytes.data(), 32));
    m.corrupt_mac_mask = 1 + rng.next_below(15);
    return m;
}

PhaseMsg make_phase(Rng& rng, PhaseMsg::Phase phase) {
    PhaseMsg m;
    m.phase = phase;
    m.instance = InstanceId{1};
    m.view = ViewId{4};
    m.seq = SeqNum{9};
    m.batch_digest = random_digest(rng);
    m.replica = NodeId{2};
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::node(NodeId{2}), 4,
                                        BytesView(m.batch_digest.bytes.data(), 32));
    m.corrupt_mac_mask = 1 + rng.next_below(15);
    return m;
}

CheckpointMsg make_checkpoint(Rng& rng) {
    CheckpointMsg m;
    m.instance = InstanceId{2};
    m.seq = SeqNum{32};
    m.state_digest = random_digest(rng);
    m.replica = NodeId{1};
    m.view = ViewId{2};
    m.cpi = 1 + rng.next_below(8);
    m.executed = 31 + rng.next_below(8);
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::node(NodeId{1}), 4,
                                        BytesView(m.state_digest.bytes.data(), 32));
    return m;
}

PreparedProof make_proof(Rng& rng) {
    PreparedProof p;
    p.seq = SeqNum{7};
    p.view = ViewId{1};
    p.batch_digest = random_digest(rng);
    for (int i = 0; i < 3; ++i) p.batch.push_back(random_ref(rng));
    return p;
}

ViewChangeMsg make_view_change(Rng& rng) {
    ViewChangeMsg m;
    m.instance = InstanceId{1};
    m.new_view = ViewId{5};
    m.last_stable = SeqNum{16};
    for (int i = 0; i < 2; ++i) m.prepared.push_back(make_proof(rng));
    m.replica = NodeId{3};
    m.sig = keys().sign(crypto::Principal::node(NodeId{3}), m.signed_digest());
    return m;
}

NewViewMsg make_new_view(Rng& rng) {
    NewViewMsg m;
    m.instance = InstanceId{1};
    m.view = ViewId{5};
    for (int i = 0; i < 3; ++i) m.view_change_digests.push_back(random_digest(rng));
    for (int i = 0; i < 2; ++i) m.reproposals.push_back(make_proof(rng));
    m.primary = NodeId{1};
    m.sig = keys().sign(crypto::Principal::node(NodeId{1}), m.signed_digest());
    return m;
}

core::PropagateMsg make_propagate(Rng& rng) {
    core::PropagateMsg m;
    m.request = std::make_shared<const RequestMsg>(make_request(rng));
    m.sender = NodeId{2};
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::node(NodeId{2}), 4,
                                        BytesView(m.request->digest.bytes.data(), 32));
    m.corrupt_mac_mask = 1 + rng.next_below(15);
    return m;
}

core::InstanceChangeMsg make_instance_change(Rng& rng) {
    core::InstanceChangeMsg m;
    m.cpi = 1 + rng.next_below(32);
    m.sender = NodeId{1};
    Digest d = random_digest(rng);
    m.auth = crypto::make_authenticator(keys(), crypto::Principal::node(NodeId{1}), 4,
                                        BytesView(d.bytes.data(), 32));
    return m;
}

// -- Shared harness helpers ------------------------------------------------

template <typename T>
Bytes encoded(const T& m) {
    net::WireWriter w;
    m.encode(w);
    return w.take();
}

template <typename T>
void decode_garbage(const Bytes& data) {
    net::WireReader reader{BytesView(data)};
    // Must not crash; the result is unspecified but bounded.
    const T msg = T::decode(reader);
    (void)msg;
}

/// encode → decode → encode must be byte-identical and consume every byte,
/// and decode must give back the original message, field for field.
template <typename T>
void expect_round_trip(const T& m, const char* what) {
    const Bytes first = encoded(m);
    net::WireReader reader{BytesView(first)};
    const T decoded = T::decode(reader);
    EXPECT_TRUE(reader.ok()) << what << ": decode poisoned the reader";
    EXPECT_EQ(reader.remaining(), 0u) << what << ": trailing bytes not consumed";
    EXPECT_EQ(first, encoded(decoded)) << what << ": re-encode differs";
    EXPECT_TRUE(decoded == m) << what << ": a field did not survive encode → decode";
}

/// All strict prefixes of a valid encoding decode without crashing, and
/// none is silently accepted as the original message: either the reader is
/// poisoned or the decoded (partial) message re-encodes differently.
template <typename T>
void expect_truncations_safe(Rng& rng, const Bytes& full, const char* what) {
    for (int i = 0; i < 40; ++i) {
        const std::size_t cut = rng.next_below(full.size());
        const Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
        net::WireReader reader{BytesView(truncated)};
        const T out = T::decode(reader);
        EXPECT_TRUE(!reader.ok() || encoded(out) != full)
            << what << ": truncation to " << cut << " of " << full.size()
            << " bytes decoded back to the original message";
    }
}

/// Single-bit corruptions never crash and never make length fields
/// believable beyond the actual buffer.
template <typename T>
void expect_bit_flips_bounded(Rng& rng, Bytes bytes, const char* what) {
    (void)what;
    for (int i = 0; i < 60; ++i) {
        const std::size_t pos = rng.next_below(bytes.size());
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
        bytes[pos] ^= mask;
        net::WireReader reader{BytesView(bytes)};
        const T out = T::decode(reader);
        (void)out;
        bytes[pos] ^= mask;  // restore: each iteration is a 1-bit corruption
    }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// -- Round-trip identity for every wire message type -----------------------

TEST_P(FuzzSeeds, RoundTripByteIdentityAllTypes) {
    Rng rng(GetParam());
    expect_round_trip(random_ref(rng), "RequestRef");
    expect_round_trip(make_request(rng), "RequestMsg");
    expect_round_trip(make_reply(rng), "ReplyMsg");
    expect_round_trip(make_preprepare(rng), "PrePrepareMsg");
    expect_round_trip(make_phase(rng, PhaseMsg::Phase::kPrepare), "PhaseMsg/prepare");
    expect_round_trip(make_phase(rng, PhaseMsg::Phase::kCommit), "PhaseMsg/commit");
    expect_round_trip(make_checkpoint(rng), "CheckpointMsg");
    expect_round_trip(make_proof(rng), "PreparedProof");
    expect_round_trip(make_view_change(rng), "ViewChangeMsg");
    expect_round_trip(make_new_view(rng), "NewViewMsg");
    expect_round_trip(make_propagate(rng), "PropagateMsg");
    expect_round_trip(make_instance_change(rng), "InstanceChangeMsg");
}

TEST_P(FuzzSeeds, RoundTripEmptyCollections) {
    Rng rng(GetParam());
    // Boundary shapes: no batch, no proofs, no MAC vector.
    PrePrepareMsg pp = make_preprepare(rng);
    pp.batch.clear();
    expect_round_trip(pp, "PrePrepareMsg/empty-batch");
    ViewChangeMsg vc = make_view_change(rng);
    vc.prepared.clear();
    expect_round_trip(vc, "ViewChangeMsg/no-proofs");
    NewViewMsg nv = make_new_view(rng);
    nv.reproposals.clear();
    nv.view_change_digests.clear();
    expect_round_trip(nv, "NewViewMsg/empty");
    core::InstanceChangeMsg ic = make_instance_change(rng);
    ic.auth.macs.clear();
    expect_round_trip(ic, "InstanceChangeMsg/no-macs");
    RequestMsg req = make_request(rng);
    req.payload.clear();
    req.auth.macs.clear();
    expect_round_trip(req, "RequestMsg/empty");
}

// -- Adversarial input -----------------------------------------------------

TEST_P(FuzzSeeds, RandomBytesDecodeSafely) {
    Rng rng(GetParam());
    for (std::size_t size : {0ul, 1ul, 16ul, 64ul, 256ul, 4096ul}) {
        const Bytes junk = random_bytes(rng, size);
        decode_garbage<RequestMsg>(junk);
        decode_garbage<ReplyMsg>(junk);
        decode_garbage<PrePrepareMsg>(junk);
        decode_garbage<PhaseMsg>(junk);
        decode_garbage<CheckpointMsg>(junk);
        decode_garbage<ViewChangeMsg>(junk);
        decode_garbage<NewViewMsg>(junk);
        decode_garbage<core::PropagateMsg>(junk);
        decode_garbage<core::InstanceChangeMsg>(junk);
    }
}

TEST_P(FuzzSeeds, TruncationsOfValidEncodingsAreRejected) {
    Rng rng(GetParam());
    expect_truncations_safe<RequestMsg>(rng, encoded(make_request(rng)), "RequestMsg");
    expect_truncations_safe<ReplyMsg>(rng, encoded(make_reply(rng)), "ReplyMsg");
    expect_truncations_safe<PrePrepareMsg>(rng, encoded(make_preprepare(rng)), "PrePrepareMsg");
    expect_truncations_safe<PhaseMsg>(
        rng, encoded(make_phase(rng, PhaseMsg::Phase::kPrepare)), "PhaseMsg");
    expect_truncations_safe<CheckpointMsg>(rng, encoded(make_checkpoint(rng)), "CheckpointMsg");
    expect_truncations_safe<ViewChangeMsg>(rng, encoded(make_view_change(rng)), "ViewChangeMsg");
    expect_truncations_safe<NewViewMsg>(rng, encoded(make_new_view(rng)), "NewViewMsg");
    expect_truncations_safe<core::PropagateMsg>(rng, encoded(make_propagate(rng)),
                                                "PropagateMsg");
    expect_truncations_safe<core::InstanceChangeMsg>(rng, encoded(make_instance_change(rng)),
                                                     "InstanceChangeMsg");
}

TEST_P(FuzzSeeds, BitFlipsEitherFailOrDecodeBounded) {
    Rng rng(GetParam());
    expect_bit_flips_bounded<RequestMsg>(rng, encoded(make_request(rng)), "RequestMsg");
    expect_bit_flips_bounded<ReplyMsg>(rng, encoded(make_reply(rng)), "ReplyMsg");
    expect_bit_flips_bounded<PrePrepareMsg>(rng, encoded(make_preprepare(rng)), "PrePrepareMsg");
    expect_bit_flips_bounded<PhaseMsg>(
        rng, encoded(make_phase(rng, PhaseMsg::Phase::kCommit)), "PhaseMsg");
    expect_bit_flips_bounded<CheckpointMsg>(rng, encoded(make_checkpoint(rng)), "CheckpointMsg");
    expect_bit_flips_bounded<ViewChangeMsg>(rng, encoded(make_view_change(rng)), "ViewChangeMsg");
    expect_bit_flips_bounded<NewViewMsg>(rng, encoded(make_new_view(rng)), "NewViewMsg");
    expect_bit_flips_bounded<core::PropagateMsg>(rng, encoded(make_propagate(rng)),
                                                 "PropagateMsg");
    expect_bit_flips_bounded<core::InstanceChangeMsg>(rng, encoded(make_instance_change(rng)),
                                                      "InstanceChangeMsg");
    // The original payload-bound check on a corrupted REQUEST.
    Bytes bytes = encoded(make_request(rng));
    for (int i = 0; i < 100; ++i) {
        const std::size_t pos = rng.next_below(bytes.size());
        bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        net::WireReader reader{BytesView(bytes)};
        const RequestMsg out = RequestMsg::decode(reader);
        // Payload length claims are bounded by the actual buffer.
        EXPECT_LE(out.payload.size(), bytes.size());
        EXPECT_LE(out.auth.macs.size(), bytes.size() / 16 + 1);
    }
}

TEST_P(FuzzSeeds, LengthPrefixBombsRejected) {
    // A claimed huge length must not cause a huge allocation.
    Rng rng(GetParam());
    net::WireWriter w;
    w.u32(raw(ClientId{1}));
    w.u64(raw(RequestId{1}));
    w.u32(0xFFFFFFFF);  // payload "length"
    const Bytes evil = w.buffer();
    net::WireReader reader{BytesView(evil)};
    const RequestMsg out = RequestMsg::decode(reader);
    EXPECT_TRUE(out.payload.empty());
    EXPECT_FALSE(reader.ok());
}

TEST_P(FuzzSeeds, MacCountBombsRejected) {
    // PROPAGATE / INSTANCE_CHANGE carry a bare MAC count; a huge claim must
    // leave the MAC vector empty instead of allocating.
    Rng rng(GetParam());
    {
        net::WireWriter w;
        make_request(rng).encode(w);
        w.u32(2);           // sender
        w.u32(0xFFFFFFFF);  // MAC "count"
        const Bytes evil = w.buffer();
        net::WireReader reader{BytesView(evil)};
        const core::PropagateMsg out = core::PropagateMsg::decode(reader);
        EXPECT_TRUE(out.auth.macs.empty());
    }
    {
        net::WireWriter w;
        w.u64(7);           // cpi
        w.u32(1);           // sender
        w.u32(0xFFFFFFFF);  // MAC "count"
        const Bytes evil = w.buffer();
        net::WireReader reader{BytesView(evil)};
        const core::InstanceChangeMsg out = core::InstanceChangeMsg::decode(reader);
        EXPECT_TRUE(out.auth.macs.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace rbft::bft
