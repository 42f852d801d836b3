// Non-blocking framed-TCP transport for the real-node runtime.
//
// One TcpTransport per process: a listening socket plus any number of
// connections, all serviced by a single poll(2) loop on the caller's
// thread.  The transport moves opaque frame payloads (see runtime/frame.hpp
// for the byte format); attaching meaning to them — envelope decoding,
// sender authentication, quarantine policy — is SocketFabric's job.
//
// Connection model:
//  * Outbound ("peers"): add_peer() registers a remote address the
//    transport keeps dialed at all times — on failure or disconnection it
//    redials on a capped-exponential-backoff-with-jitter schedule
//    (BackoffPolicy::reconnect()), so a SIGKILLed-and-restarted replica is
//    re-adopted without operator action.  Accepting an inbound connection
//    makes every disconnected peer due at once: a peer that dials us is
//    listening, so a node started before its peers skips the backoff.  Frames sent while the link is
//    down are buffered (bounded) and flushed on connect; overflow is
//    dropped and counted — BFT protocols treat the network as lossy.
//  * Inbound: accepted connections deliver frames tagged with a ConnId;
//    the fabric binds a ConnId to the sender identity its first valid
//    envelope claims, and replies to clients ride their inbound connection
//    back (clients never need a listening port).
//
// Robustness posture: short writes resume where they left off, partial
// reads reassemble through FrameReader, and a connection whose stream turns
// to garbage is closed immediately and reported as poisoned (Aardvark's
// "never spend resources resynchronizing with a faulty peer").
//
// Time comes from an injected Clock so tests can drive the reconnect
// schedule deterministically with a FakeClock and poll(Duration{0}).
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "runtime/clock.hpp"
#include "runtime/frame.hpp"

namespace rbft::runtime {

/// Identifies one live connection (inbound or outbound); never reused
/// within a transport's lifetime.
using ConnId = std::uint64_t;

/// Per-peer outbox cap: frames queued past this while the link is down are
/// dropped (and counted), bounding memory against a long-dead peer.
inline constexpr std::size_t kMaxOutboxBytes = 4u << 20;

struct TransportStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t sends_dropped = 0;
    std::uint64_t poisoned_connections = 0;
    std::uint64_t accepts = 0;
    std::uint64_t dials_attempted = 0;
    std::uint64_t dials_failed = 0;
};

/// Dial-state snapshot for one registered peer (observability + tests).
struct PeerStatus {
    bool connected = false;
    /// Consecutive failed dial attempts since the last success.
    std::uint32_t attempts = 0;
    /// When the next dial is due (meaningful while not connected).
    TimePoint next_dial{};
};

class TcpTransport {
public:
    using FrameHandler = std::function<void(ConnId conn, Bytes payload)>;
    using ClosedHandler = std::function<void(ConnId conn, bool poisoned)>;

    TcpTransport(Clock& clock, std::uint64_t jitter_seed,
                 BackoffPolicy reconnect = BackoffPolicy::reconnect());
    ~TcpTransport();
    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    /// Binds and listens on 127.0.0.1:`port` (port 0 = ephemeral).
    /// Returns false and sets `error` on failure.
    bool listen(std::uint16_t port, std::string* error);
    /// The bound listening port (after a successful listen()).
    [[nodiscard]] std::uint16_t listen_port() const noexcept { return listen_port_; }

    /// Registers a remote the transport keeps dialed; `peer_key` is the
    /// caller's name for it (the fabric packs an Address into it).
    void add_peer(std::uint64_t peer_key, const std::string& host, std::uint16_t port);

    /// Queues one frame to a registered peer.  Returns false if the frame
    /// was dropped (unknown peer or outbox overflow).
    bool send_to_peer(std::uint64_t peer_key, BytesView payload);

    /// Queues one frame on an existing connection (e.g. a reply riding a
    /// client's inbound connection).  False if the connection is gone or
    /// its outbox overflowed.
    bool send_on(ConnId conn, BytesView payload);

    /// Closes a connection (fabric-initiated, e.g. quarantine).  The closed
    /// handler fires with the given poisoned flag.
    void close_conn(ConnId conn, bool poisoned);

    /// Services the sockets once: accepts, dials due peers, flushes
    /// outboxes, reads frames (invoking the frame handler inline).  Blocks
    /// in ppoll(2) for at most `max_wait`, to the nanosecond.
    void poll(Duration max_wait);

    void set_frame_handler(FrameHandler h) { on_frame_ = std::move(h); }
    void set_closed_handler(ClosedHandler h) { on_closed_ = std::move(h); }

    [[nodiscard]] std::optional<PeerStatus> peer_status(std::uint64_t peer_key) const;
    [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
    /// Number of currently open connections (inbound + outbound).
    [[nodiscard]] std::size_t open_connections() const noexcept { return conns_.size(); }

private:
    struct Conn {
        int fd = -1;
        bool connecting = false;           // non-blocking connect in flight
        std::uint64_t peer_key = kNoPeer;  // set for outbound connections
        FrameReader reader;
        Bytes outbox;              // frames queued for the wire
        std::size_t out_off = 0;   // short-write resume point
    };

    struct Peer {
        std::string host;
        std::uint16_t port = 0;
        std::uint64_t conn = 0;    // 0 = not connected
        std::uint32_t attempts = 0;
        TimePoint next_dial{};     // dial due time while disconnected
        Bytes pending;             // frames awaiting a connection
    };

    static constexpr std::uint64_t kNoPeer = ~std::uint64_t{0};

    void dial(std::uint64_t peer_key, Peer& peer);
    void dial_failed(Peer& peer);
    void on_connect_outcome(ConnId id, Conn& conn, bool ok);
    void flush_outbox(ConnId id, Conn& conn);
    void read_ready(ConnId id, Conn& conn);
    void drop_conn(ConnId id, bool poisoned);
    bool queue_bytes(Conn& conn, BytesView frame);

    Clock& clock_;
    Rng jitter_;
    BackoffPolicy reconnect_;
    int listen_fd_ = -1;
    std::uint16_t listen_port_ = 0;
    ConnId next_conn_id_ = 1;
    std::map<ConnId, Conn> conns_;
    std::map<std::uint64_t, Peer> peers_;
    FrameHandler on_frame_;
    ClosedHandler on_closed_;
    TransportStats stats_;
    // poll()'s descriptor set and the ConnId of each entry, rebuilt on
    // every call into the same storage.
    std::vector<pollfd> poll_fds_;
    std::vector<ConnId> poll_ids_;
};

}  // namespace rbft::runtime
