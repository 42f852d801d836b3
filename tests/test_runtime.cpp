// Unit tests for the real-node runtime's transport substrate: frame codec
// round-trips, partial-read reassembly, short-write resume, garbage
// rejection, the shared reconnect backoff schedule and the redial on an
// inbound connection (deterministic with an injected FakeClock), the
// message envelope codec, the cluster-config parser, and SocketFabric
// exchanges over real loopback TCP.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "bft/messages.hpp"
#include "common/backoff.hpp"
#include "net/flood.hpp"
#include "rbft/messages.hpp"
#include "runtime/clock.hpp"
#include "runtime/config.hpp"
#include "runtime/envelope.hpp"
#include "runtime/executor.hpp"
#include "runtime/fabric.hpp"
#include "runtime/frame.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"

namespace rbft::runtime {
namespace {

// ---------------------------------------------------------------------------
// Frame codec.

TEST(Frame, RoundTrip) {
    const Bytes payload = {1, 2, 3, 4, 5};
    const Bytes framed = encode_frame(BytesView(payload));
    ASSERT_EQ(framed.size(), kFrameHeaderBytes + payload.size());
    FrameReader reader;
    ASSERT_TRUE(reader.feed(BytesView(framed)));
    auto out = reader.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, PartialReadReassemblyByteByByte) {
    const Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
    const Bytes framed = encode_frame(BytesView(payload));
    FrameReader reader;
    // TCP gives no boundaries: feed one byte at a time; the frame must pop
    // exactly once, when the last byte lands.
    for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
        ASSERT_TRUE(reader.feed(BytesView(&framed[i], 1)));
        EXPECT_FALSE(reader.next().has_value()) << "frame popped early at byte " << i;
    }
    ASSERT_TRUE(reader.feed(BytesView(&framed[framed.size() - 1], 1)));
    auto out = reader.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload);
}

TEST(Frame, FusedFramesPopIndividually) {
    Bytes stream;
    for (std::uint8_t i = 0; i < 3; ++i) {
        const Bytes framed = encode_frame(BytesView(Bytes{i, i, i}));
        stream.insert(stream.end(), framed.begin(), framed.end());
    }
    FrameReader reader;
    ASSERT_TRUE(reader.feed(BytesView(stream)));
    for (std::uint8_t i = 0; i < 3; ++i) {
        auto out = reader.next();
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(*out, (Bytes{i, i, i}));
    }
    EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, GarbageMagicPoisons) {
    FrameReader reader;
    const Bytes garbage = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P'};
    EXPECT_FALSE(reader.feed(BytesView(garbage)));
    EXPECT_TRUE(reader.poisoned());
    // Poisoned readers reject everything, even well-formed frames.
    const Bytes ok = encode_frame(BytesView(Bytes{1}));
    EXPECT_FALSE(reader.feed(BytesView(ok)));
    EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, OversizedLengthPoisons) {
    Bytes header;
    const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<std::uint8_t>(kFrameMagic >> (8 * i)));
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
    FrameReader reader;
    EXPECT_FALSE(reader.feed(BytesView(header)));
    EXPECT_TRUE(reader.poisoned());
}

TEST(Frame, ZeroLengthPoisons) {
    Bytes header;
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<std::uint8_t>(kFrameMagic >> (8 * i)));
    for (int i = 0; i < 4; ++i) header.push_back(0);
    FrameReader reader;
    EXPECT_FALSE(reader.feed(BytesView(header)));
    EXPECT_TRUE(reader.poisoned());
}

// ---------------------------------------------------------------------------
// Shared backoff policy (the one schedule simulated clients, chaos soaks
// and the runtime reconnect loop all derive from).

TEST(Backoff, DeterministicScheduleWithFixedRng) {
    const BackoffPolicy policy{milliseconds(25.0), 2.0, seconds(2.0), 0.0};
    Rng rng(7);
    // No jitter: exact capped doubling.
    EXPECT_EQ(policy.delay(0, rng).ns, milliseconds(25.0).ns);
    EXPECT_EQ(policy.delay(1, rng).ns, milliseconds(50.0).ns);
    EXPECT_EQ(policy.delay(2, rng).ns, milliseconds(100.0).ns);
    EXPECT_EQ(policy.delay(6, rng).ns, milliseconds(1600.0).ns);
    EXPECT_EQ(policy.delay(7, rng).ns, seconds(2.0).ns);   // capped
    EXPECT_EQ(policy.delay(20, rng).ns, seconds(2.0).ns);  // stays capped
}

TEST(Backoff, JitterBoundedAndSeedReproducible) {
    const BackoffPolicy policy = BackoffPolicy::reconnect();
    Rng a(42);
    Rng b(42);
    for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
        const Duration da = policy.delay(attempt, a);
        const Duration db = policy.delay(attempt, b);
        EXPECT_EQ(da.ns, db.ns) << "same seed must give the same schedule";
        const double unjittered = std::min(static_cast<double>(policy.base.ns) *
                                               std::pow(2.0, static_cast<double>(attempt)),
                                           static_cast<double>(policy.cap.ns));
        EXPECT_GE(static_cast<double>(da.ns), unjittered - 1.0);
        EXPECT_LE(static_cast<double>(da.ns), unjittered * (1.0 + policy.jitter_frac) + 1.0);
    }
}

TEST(Backoff, DefaultCapIs32xBase) {
    const BackoffPolicy policy{milliseconds(10.0), 2.0, Duration{}, 0.0};
    Rng rng(1);
    EXPECT_EQ(policy.delay(30, rng).ns, milliseconds(320.0).ns);
}

// ---------------------------------------------------------------------------
// Envelope codec.

TEST(Envelope, RequestRoundTrip) {
    bft::RequestMsg req;
    req.client = ClientId{7};
    req.rid = RequestId{123};
    req.payload = {9, 8, 7};
    const auto bytes = encode_envelope(net::Address::client(ClientId{7}), req);
    ASSERT_TRUE(bytes.has_value());
    const auto env = decode_envelope(BytesView(*bytes));
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->from, net::Address::client(ClientId{7}));
    ASSERT_EQ(env->message->type(), net::MsgType::kRequest);
    const auto& out = static_cast<const bft::RequestMsg&>(*env->message);
    EXPECT_EQ(out.client, req.client);
    EXPECT_EQ(out.rid, req.rid);
    EXPECT_EQ(out.payload, req.payload);
}

TEST(Envelope, PhaseTagMismatchRejected) {
    // PREPARE and COMMIT share one body type; the body's phase byte must
    // agree with the envelope's outer tag or a PREPARE could be replayed as
    // a COMMIT.
    bft::PhaseMsg prepare;
    prepare.phase = bft::PhaseMsg::Phase::kPrepare;
    prepare.seq = SeqNum{5};
    auto bytes = encode_envelope(net::Address::node(NodeId{1}), prepare);
    ASSERT_TRUE(bytes.has_value());
    ASSERT_TRUE(decode_envelope(BytesView(*bytes)).has_value());
    // Flip the outer tag from kPrepare (21) to kCommit (22): byte 5 (after
    // u8 kind + u32 index) is the low byte of the u16 type.
    (*bytes)[5] = 22;
    EXPECT_FALSE(decode_envelope(BytesView(*bytes)).has_value());
}

TEST(Envelope, SimOnlyTypesHaveNoWireForm) {
    const net::FloodMsg flood(1024, net::FloodMsg::Target::kReplica);
    EXPECT_FALSE(encode_envelope(net::Address::node(NodeId{0}), flood).has_value());
}

TEST(Envelope, TruncationAndTrailingGarbageRejected) {
    core::InstanceChangeMsg ic;
    ic.cpi = 3;
    ic.sender = NodeId{2};
    const auto bytes = encode_envelope(net::Address::node(NodeId{2}), ic);
    ASSERT_TRUE(bytes.has_value());
    // Every strict prefix must be rejected.
    for (std::size_t len = 0; len < bytes->size(); ++len) {
        EXPECT_FALSE(decode_envelope(BytesView(bytes->data(), len)).has_value())
            << "accepted a " << len << "-byte truncation";
    }
    Bytes padded = *bytes;
    padded.push_back(0);
    EXPECT_FALSE(decode_envelope(BytesView(padded)).has_value());
}

TEST(Envelope, UnknownTypeRejected) {
    const Bytes bogus = {0 /*kind=node*/, 1, 0, 0, 0 /*index=1*/, 0xFF, 0x7F /*type=0x7FFF*/};
    EXPECT_FALSE(decode_envelope(BytesView(bogus)).has_value());
}

// ---------------------------------------------------------------------------
// Cluster config.

TEST(Config, ParsesValidSpec) {
    const std::string text = R"({
        "f": 1, "seed": 42, "batch_max": 8, "checkpoint_interval": 16,
        "engine_retry_ms": 40, "cost_model": "zero",
        "nodes": [
            {"host": "127.0.0.1", "port": 5001}, {"port": 5002},
            {"port": 5003}, {"port": 5004}
        ]
    })";
    std::string error;
    const auto spec = parse_cluster_spec(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->f, 1u);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_EQ(spec->n(), 4u);
    ASSERT_EQ(spec->nodes.size(), 4u);
    EXPECT_EQ(spec->nodes[1].host, "127.0.0.1");  // default host
    EXPECT_EQ(spec->nodes[3].port, 5004);
    EXPECT_EQ(spec->engine_retry_interval.ns, milliseconds(40.0).ns);
    EXPECT_EQ(spec->cost_model, "zero");
}

TEST(Config, RejectsWrongNodeCount) {
    std::string error;
    EXPECT_FALSE(
        parse_cluster_spec(R"({"f": 1, "nodes": [{"port": 1}, {"port": 2}]})", &error).has_value());
    EXPECT_NE(error.find("requires 4"), std::string::npos) << error;
}

TEST(Config, RejectsMoreThanMaxNodes) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec(R"({"f": 22, "nodes": []})", &error).has_value());
    EXPECT_NE(error.find("at most 64 nodes"), std::string::npos) << error;
}

TEST(Config, RejectsMalformedJson) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec("{\"f\": 1,,}", &error).has_value());
    EXPECT_NE(error.find("JSON error"), std::string::npos) << error;
}

TEST(Config, RejectsBadCostModel) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec(
                     R"({"f": 1, "cost_model": "quantum",
                         "nodes": [{"port":1},{"port":2},{"port":3},{"port":4}]})",
                     &error)
                     .has_value());
}

TEST(Config, RejectsBadPort) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec(
                     R"({"f": 1,
                         "nodes": [{"port":0},{"port":2},{"port":3},{"port":4}]})",
                     &error)
                     .has_value());
}

// ---------------------------------------------------------------------------
// TcpTransport over real loopback sockets.

/// Pumps both transports until `done` or `rounds` iterations elapse.
template <typename Pred>
void pump(TcpTransport& a, TcpTransport& b, Pred done, int rounds = 2000) {
    for (int i = 0; i < rounds && !done(); ++i) {
        a.poll(milliseconds(1.0));
        b.poll(milliseconds(1.0));
    }
}

TEST(Transport, SubMillisecondWaitSleepsInsteadOfSpinning) {
    // A timer due in 300 us must cost a 300 us sleep.  Rounding the wait
    // down to whole milliseconds made it a zero-timeout poll, so a node
    // with a timer under a millisecond away spun until it fired.
    SteadyClock clock;
    TcpTransport transport(clock, 1);
    std::string error;
    ASSERT_TRUE(transport.listen(0, &error)) << error;
    for (int i = 0; i < 3; ++i) {
        const TimePoint before = clock.now();
        transport.poll(microseconds(300.0));
        EXPECT_GE((clock.now() - before).ns, microseconds(300.0).ns) << "poll " << i;
    }
}

TEST(Transport, LoopbackFrameExchange) {
    SteadyClock clock;
    TcpTransport server(clock, 1);
    TcpTransport dialer(clock, 2);
    std::string error;
    ASSERT_TRUE(server.listen(0, &error)) << error;

    std::vector<Bytes> received;
    server.set_frame_handler([&](ConnId, Bytes payload) { received.push_back(std::move(payload)); });
    dialer.add_peer(99, "127.0.0.1", server.listen_port());

    const Bytes payload = {1, 2, 3};
    EXPECT_TRUE(dialer.send_to_peer(99, BytesView(payload)));  // buffered pre-connect
    pump(server, dialer, [&] { return !received.empty(); });
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], payload);
    const auto status = dialer.peer_status(99);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->connected);
    EXPECT_EQ(status->attempts, 0u);  // reset on successful connect
}

TEST(Transport, LargeFrameShortWriteResume) {
    SteadyClock clock;
    TcpTransport server(clock, 1);
    TcpTransport dialer(clock, 2);
    std::string error;
    ASSERT_TRUE(server.listen(0, &error)) << error;

    std::vector<Bytes> received;
    server.set_frame_handler([&](ConnId, Bytes payload) { received.push_back(std::move(payload)); });
    dialer.add_peer(1, "127.0.0.1", server.listen_port());

    // 2 MiB exceeds any default socket buffer, forcing EAGAIN mid-frame;
    // the outbox must resume from the short-write offset across polls.
    Bytes big(2u << 20);
    for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
    EXPECT_TRUE(dialer.send_to_peer(1, BytesView(big)));
    pump(server, dialer, [&] { return !received.empty(); });
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], big);
}

TEST(Transport, GarbageStreamPoisonsConnection) {
    SteadyClock clock;
    TcpTransport server(clock, 1);
    std::string error;
    ASSERT_TRUE(server.listen(0, &error)) << error;

    bool poisoned = false;
    server.set_closed_handler([&](ConnId, bool p) { poisoned = poisoned || p; });

    // A plain OS socket plays the non-protocol peer: a valid frame whose
    // magic is corrupted must poison (and close) the connection.
    Bytes bad = encode_frame(BytesView(Bytes{1, 2, 3}));
    bad[0] ^= 0xFF;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.listen_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_GT(::send(fd, bad.data(), bad.size(), 0), 0);
    for (int i = 0; i < 2000 && !poisoned; ++i) server.poll(milliseconds(1.0));
    ::close(fd);
    EXPECT_TRUE(poisoned);
    EXPECT_EQ(server.stats().poisoned_connections, 1u);
    EXPECT_EQ(server.open_connections(), 0u);
}

TEST(Transport, ReconnectBackoffScheduleWithFakeClock) {
    FakeClock clock;
    const BackoffPolicy policy{milliseconds(25.0), 2.0, seconds(2.0), 0.0};  // no jitter
    TcpTransport dialer(clock, 7, policy);
    // Nobody listens on the peer port: every dial must fail, and the redial
    // schedule must follow the policy exactly (injected clock, no jitter).
    dialer.add_peer(1, "127.0.0.1", 1);
    std::vector<std::int64_t> gaps;
    for (std::uint32_t attempt = 0; attempt < 6; ++attempt) {
        // Poll until this attempt's failure is observed (the refusal may
        // need a second poll to surface through the non-blocking connect).
        for (int i = 0; i < 1000; ++i) {
            dialer.poll(Duration{});
            const auto st = dialer.peer_status(1);
            ASSERT_TRUE(st.has_value());
            if (st->attempts == attempt + 1) break;
        }
        const auto status = dialer.peer_status(1);
        ASSERT_TRUE(status.has_value());
        ASSERT_FALSE(status->connected);
        ASSERT_EQ(status->attempts, attempt + 1);
        gaps.push_back((status->next_dial - clock.now()).ns);
        clock.set(status->next_dial);  // jump to the next dial's due time
    }
    Rng unused(0);  // jitter_frac == 0: the rng is never consulted
    for (std::uint32_t attempt = 0; attempt < gaps.size(); ++attempt) {
        EXPECT_EQ(gaps[attempt], policy.delay(attempt, unused).ns)
            << "attempt " << attempt << " deviates from the policy schedule";
    }
    EXPECT_EQ(dialer.stats().dials_failed, 6u);
}

TEST(Transport, InboundConnectionMakesDisconnectedPeersDueNow) {
    FakeClock clock;
    const BackoffPolicy policy{milliseconds(25.0), 2.0, seconds(2.0), 0.0};  // no jitter
    std::string error;
    // Reserve a port for the late peer, then free it so the first dial to
    // it is refused.
    std::uint16_t late_port = 0;
    {
        TcpTransport probe(clock, 1);
        ASSERT_TRUE(probe.listen(0, &error)) << error;
        late_port = probe.listen_port();
    }
    TcpTransport early(clock, 2, policy);
    ASSERT_TRUE(early.listen(0, &error)) << error;
    early.add_peer(1, "127.0.0.1", late_port);
    for (int i = 0; i < 1000 && early.peer_status(1)->attempts == 0; ++i) {
        early.poll(Duration{});
    }
    ASSERT_EQ(early.peer_status(1)->attempts, 1u);
    ASSERT_GT(early.peer_status(1)->next_dial, clock.now());  // backing off

    // The late peer comes up on the reserved port and dials in.  The clock
    // never moves, so only the accepted inbound connection can make the
    // early node redial before its backoff expires.
    TcpTransport late(clock, 3, policy);
    ASSERT_TRUE(late.listen(late_port, &error)) << error;
    late.add_peer(2, "127.0.0.1", early.listen_port());
    for (int i = 0; i < 2000 && !early.peer_status(1)->connected; ++i) {
        early.poll(Duration{});
        late.poll(Duration{});
    }
    EXPECT_TRUE(early.peer_status(1)->connected);
    EXPECT_EQ(early.stats().accepts, 1u);
    EXPECT_EQ(early.stats().dials_failed, 1u);
}

TEST(Transport, QueuedFramesFlushWhenListenerAppears) {
    SteadyClock clock;
    const BackoffPolicy fast{milliseconds(1.0), 1.0, milliseconds(1.0), 0.0};
    TcpTransport dialer(clock, 3, fast);
    TcpTransport server(clock, 4);
    std::string error;
    ASSERT_TRUE(server.listen(0, &error)) << error;

    dialer.add_peer(1, "127.0.0.1", server.listen_port());
    std::vector<Bytes> received;
    server.set_frame_handler([&](ConnId, Bytes payload) { received.push_back(std::move(payload)); });
    EXPECT_TRUE(dialer.send_to_peer(1, BytesView(Bytes{42})));  // queued while down
    pump(server, dialer, [&] { return !received.empty(); });
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], Bytes{42});
}

// ---------------------------------------------------------------------------
// SocketFabric: two "node processes" exchanging a protocol message.

TEST(Fabric, TwoNodeExchangeOverLoopback) {
    SteadyClock clock0;
    SteadyClock clock1;
    sim::Simulator sim0;
    sim::Simulator sim1;
    TcpTransport t0(clock0, 10);
    TcpTransport t1(clock1, 11);
    std::string error;
    ASSERT_TRUE(t0.listen(0, &error)) << error;
    ASSERT_TRUE(t1.listen(0, &error)) << error;
    ClusterSpec spec;
    spec.f = 1;
    // Nodes 2 and 3 exist in the spec but never start (their dials just
    // keep backing off).
    spec.nodes = {{"127.0.0.1", t0.listen_port()},
                  {"127.0.0.1", t1.listen_port()},
                  {"127.0.0.1", 1},
                  {"127.0.0.1", 1}};
    SocketFabric f0(sim0, t0, spec, NodeId{0});
    SocketFabric f1(sim1, t1, spec, NodeId{1});

    std::vector<std::pair<net::Address, net::MessagePtr>> inbox1;
    f1.register_node(NodeId{1}, [&](net::Address from, const net::MessagePtr& m) {
        inbox1.emplace_back(from, m);
    });

    // Two frames, so state a frame handler keeps from one frame to the next
    // (say, a view of the previous payload) is exercised; under ASan a read
    // through such a view is a heap-use-after-free.
    for (std::uint64_t cpi : {9u, 10u}) {
        auto ic = std::make_shared<core::InstanceChangeMsg>();
        ic->cpi = cpi;
        ic->sender = NodeId{0};
        f0.send(net::Address::node(NodeId{0}), net::Address::node(NodeId{1}), ic);
    }

    WallClockExecutor e0(clock0, sim0, t0);
    WallClockExecutor e1(clock1, sim1, t1);
    for (int i = 0; i < 2000 && inbox1.size() < 2; ++i) {
        e0.step(milliseconds(1.0));
        e1.step(milliseconds(1.0));
    }
    ASSERT_EQ(inbox1.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(inbox1[k].first, net::Address::node(NodeId{0}));
        ASSERT_EQ(inbox1[k].second->type(), net::MsgType::kInstanceChange);
        EXPECT_EQ(static_cast<const core::InstanceChangeMsg&>(*inbox1[k].second).cpi, 9u + k);
    }
    EXPECT_EQ(f1.stats().envelopes_delivered, 2u);
}

TEST(Fabric, SelfDeliveryShortCircuitsTheWire) {
    SteadyClock clock;
    sim::Simulator sim;
    TcpTransport transport(clock, 5);
    ClusterSpec spec;
    spec.f = 1;
    spec.nodes = {{"127.0.0.1", 1}, {"127.0.0.1", 1}, {"127.0.0.1", 1}, {"127.0.0.1", 1}};
    SocketFabric fabric(sim, transport, spec, NodeId{2});
    int delivered = 0;
    fabric.register_node(NodeId{2}, [&](net::Address, const net::MessagePtr&) { ++delivered; });
    auto ic = std::make_shared<core::InstanceChangeMsg>();
    ic->sender = NodeId{2};
    fabric.send(net::Address::node(NodeId{2}), net::Address::node(NodeId{2}), ic);
    (void)sim.run_all();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(fabric.stats().self_deliveries, 1u);
    EXPECT_EQ(transport.stats().frames_sent, 0u);
}

}  // namespace
}  // namespace rbft::runtime
