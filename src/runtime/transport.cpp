#include "runtime/transport.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace rbft::runtime {

namespace {

[[nodiscard]] bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

[[nodiscard]] sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    }
    return addr;
}

}  // namespace

TcpTransport::TcpTransport(Clock& clock, std::uint64_t jitter_seed, BackoffPolicy reconnect)
    : clock_(clock), jitter_(jitter_seed), reconnect_(reconnect) {}

TcpTransport::~TcpTransport() {
    for (auto& [id, conn] : conns_) {
        if (conn.fd >= 0) ::close(conn.fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool TcpTransport::listen(std::uint16_t port, std::string* error) {
    auto fail = [&](const char* what) {
        if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return false;
    };
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket");
    int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr("127.0.0.1", port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        return fail("bind");
    }
    if (::listen(listen_fd_, SOMAXCONN) != 0) return fail("listen");
    if (!set_nonblocking(listen_fd_)) return fail("fcntl");
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        return fail("getsockname");
    }
    listen_port_ = ntohs(addr.sin_port);
    return true;
}

void TcpTransport::add_peer(std::uint64_t peer_key, const std::string& host, std::uint16_t port) {
    Peer& peer = peers_[peer_key];
    peer.host = host;
    peer.port = port;
    peer.next_dial = clock_.now();  // dial on the next poll
}

bool TcpTransport::queue_bytes(Conn& conn, BytesView frame) {
    if (conn.outbox.size() - conn.out_off + frame.size() > kMaxOutboxBytes) {
        ++stats_.sends_dropped;
        return false;
    }
    // Compact the consumed prefix before growing, so a slow reader does not
    // make the buffer creep.
    if (conn.out_off > 0 && conn.out_off == conn.outbox.size()) {
        conn.outbox.clear();
        conn.out_off = 0;
    } else if (conn.out_off > (64u << 10)) {
        conn.outbox.erase(conn.outbox.begin(),
                          conn.outbox.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
        conn.out_off = 0;
    }
    conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
    return true;
}

bool TcpTransport::send_to_peer(std::uint64_t peer_key, BytesView payload) {
    auto it = peers_.find(peer_key);
    if (it == peers_.end()) {
        ++stats_.sends_dropped;
        return false;
    }
    Peer& peer = it->second;
    const Bytes frame = encode_frame(payload);
    if (peer.conn != 0) {
        auto cit = conns_.find(peer.conn);
        if (cit != conns_.end()) {
            if (!queue_bytes(cit->second, frame)) return false;
            ++stats_.frames_sent;
            if (!cit->second.connecting) flush_outbox(cit->first, cit->second);
            return true;
        }
    }
    // Link down: buffer until the reconnect loop re-establishes it.
    if (peer.pending.size() + frame.size() > kMaxOutboxBytes) {
        ++stats_.sends_dropped;
        return false;
    }
    peer.pending.insert(peer.pending.end(), frame.begin(), frame.end());
    ++stats_.frames_sent;
    return true;
}

bool TcpTransport::send_on(ConnId conn_id, BytesView payload) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
        ++stats_.sends_dropped;
        return false;
    }
    const Bytes frame = encode_frame(payload);
    if (!queue_bytes(it->second, frame)) return false;
    ++stats_.frames_sent;
    if (!it->second.connecting) flush_outbox(it->first, it->second);
    return true;
}

void TcpTransport::close_conn(ConnId conn_id, bool poisoned) { drop_conn(conn_id, poisoned); }

void TcpTransport::dial(std::uint64_t peer_key, Peer& peer) {
    ++stats_.dials_attempted;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || !set_nonblocking(fd)) {
        if (fd >= 0) ::close(fd);
        dial_failed(peer);
        return;
    }
    set_nodelay(fd);
    const sockaddr_in addr = make_addr(peer.host, peer.port);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        dial_failed(peer);
        return;
    }
    const ConnId id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.connecting = rc != 0;
    conn.peer_key = peer_key;
    peer.conn = id;
    if (!conn.connecting) on_connect_outcome(id, conn, true);
}

void TcpTransport::dial_failed(Peer& peer) {
    ++stats_.dials_failed;
    peer.conn = 0;
    peer.next_dial = clock_.now() + reconnect_.delay(peer.attempts, jitter_);
    ++peer.attempts;
}

void TcpTransport::on_connect_outcome(ConnId id, Conn& conn, bool ok) {
    auto pit = peers_.find(conn.peer_key);
    if (!ok) {
        if (pit != peers_.end()) dial_failed(pit->second);
        conn.peer_key = kNoPeer;  // dial_failed already rescheduled
        drop_conn(id, false);
        return;
    }
    conn.connecting = false;
    if (pit != peers_.end()) {
        pit->second.attempts = 0;
        // Flush frames queued while the link was down.
        if (!pit->second.pending.empty()) {
            conn.outbox.insert(conn.outbox.end(), pit->second.pending.begin(),
                               pit->second.pending.end());
            pit->second.pending.clear();
        }
    }
    flush_outbox(id, conn);
}

void TcpTransport::flush_outbox(ConnId id, Conn& conn) {
    while (conn.out_off < conn.outbox.size()) {
        const std::size_t remaining = conn.outbox.size() - conn.out_off;
        const ssize_t n =
            ::send(conn.fd, conn.outbox.data() + conn.out_off, remaining, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            stats_.bytes_sent += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // short write: resume later
        drop_conn(id, false);
        return;
    }
    if (conn.out_off == conn.outbox.size()) {
        conn.outbox.clear();
        conn.out_off = 0;
    }
}

void TcpTransport::read_ready(ConnId id, Conn& conn) {
    std::uint8_t buf[64 * 1024];
    while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            stats_.bytes_received += static_cast<std::uint64_t>(n);
            if (!conn.reader.feed(BytesView(buf, static_cast<std::size_t>(n)))) {
                ++stats_.poisoned_connections;
                drop_conn(id, true);
                return;
            }
            while (auto payload = conn.reader.next()) {
                ++stats_.frames_received;
                if (on_frame_) on_frame_(id, std::move(*payload));
                // The handler may have closed this connection.
                if (conns_.find(id) == conns_.end()) return;
            }
            if (n == static_cast<ssize_t>(sizeof(buf))) continue;  // maybe more buffered
            return;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        drop_conn(id, false);  // EOF or hard error
        return;
    }
}

void TcpTransport::drop_conn(ConnId id, bool poisoned) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn conn = std::move(it->second);
    conns_.erase(it);
    if (conn.fd >= 0) ::close(conn.fd);
    if (conn.peer_key != kNoPeer) {
        auto pit = peers_.find(conn.peer_key);
        if (pit != peers_.end() && pit->second.conn == id) {
            pit->second.conn = 0;
            pit->second.next_dial = clock_.now() + reconnect_.delay(pit->second.attempts, jitter_);
            ++pit->second.attempts;
        }
    }
    if (on_closed_) on_closed_(id, poisoned);
}

void TcpTransport::poll(Duration max_wait) {
    const TimePoint now = clock_.now();

    // Dial every due peer.
    for (auto& [key, peer] : peers_) {
        if (peer.conn == 0 && now >= peer.next_dial) dial(key, peer);
    }

    // Build the pollfd set in the member vectors, reusing their capacity.
    std::vector<pollfd>& fds = poll_fds_;
    std::vector<ConnId>& ids = poll_ids_;
    fds.clear();
    ids.clear();
    if (listen_fd_ >= 0) {
        fds.push_back({listen_fd_, POLLIN, 0});
        ids.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
        short events = 0;
        if (conn.connecting) {
            events = POLLOUT;
        } else {
            events = POLLIN;
            if (conn.out_off < conn.outbox.size()) events |= POLLOUT;
        }
        fds.push_back({conn.fd, events, 0});
        ids.push_back(id);
    }

    // Cap the wait at the next dial deadline so reconnects are timely.
    std::int64_t wait_ns = max_wait.ns;
    for (const auto& [key, peer] : peers_) {
        if (peer.conn == 0) wait_ns = std::min(wait_ns, (peer.next_dial - now).ns);
    }
    // ppoll, not poll: a timer due in under a millisecond must not round
    // the wait down to zero and turn the loop into a busy spin.
    wait_ns = std::clamp<std::int64_t>(wait_ns, 0, 60'000'000'000);
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return;

    for (std::size_t i = 0; i < fds.size(); ++i) {
        const pollfd& pfd = fds[i];
        if (pfd.revents == 0) continue;
        if (ids[i] == 0) {
            // Listener: accept everything waiting.
            bool accepted = false;
            while (true) {
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0) break;
                if (!set_nonblocking(fd)) {
                    ::close(fd);
                    continue;
                }
                set_nodelay(fd);
                ++stats_.accepts;
                const ConnId id = next_conn_id_++;
                conns_[id].fd = fd;
                accepted = true;
            }
            // Whoever dialed us is listening by now: make every disconnected
            // peer due at once instead of waiting out its backoff (a node
            // that starts before its peers would otherwise sit out the
            // first reconnect delay).
            if (accepted) {
                for (auto& [key, peer] : peers_) {
                    if (peer.conn == 0 && peer.next_dial > now) peer.next_dial = now;
                }
            }
            continue;
        }
        auto it = conns_.find(ids[i]);
        if (it == conns_.end()) continue;  // closed earlier this iteration
        Conn& conn = it->second;
        if (conn.connecting) {
            if ((pfd.revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
                int err = 0;
                socklen_t len = sizeof(err);
                (void)::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
                on_connect_outcome(ids[i], conn, err == 0);
            }
            continue;
        }
        if ((pfd.revents & POLLOUT) != 0) {
            flush_outbox(ids[i], conn);
            if (conns_.find(ids[i]) == conns_.end()) continue;
        }
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            read_ready(ids[i], conn);
        }
    }
}

std::optional<PeerStatus> TcpTransport::peer_status(std::uint64_t peer_key) const {
    auto it = peers_.find(peer_key);
    if (it == peers_.end()) return std::nullopt;
    PeerStatus st;
    st.connected = it->second.conn != 0;
    if (st.connected) {
        auto cit = conns_.find(it->second.conn);
        st.connected = cit != conns_.end() && !cit->second.connecting;
    }
    st.attempts = it->second.attempts;
    st.next_dial = it->second.next_dial;
    return st;
}

}  // namespace rbft::runtime
