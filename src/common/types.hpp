// Strongly-typed identifiers and fundamental value types shared by every
// layer of the RBFT reproduction.
//
// The paper distinguishes *nodes* (physical machines, N = 3f+1 of them),
// *replicas* (one per protocol instance per node), *protocol instances*
// (f+1 of them, one master + f backups), *clients*, *views* (primary
// configurations) and *sequence numbers* (ordering slots).  Each gets its
// own vocabulary type here so they cannot be confused at call sites.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rbft {

/// Identifier of a physical machine hosting one replica per protocol
/// instance.  Nodes are numbered 0..N-1 with N = 3f+1.
enum class NodeId : std::uint32_t {};

/// Identifier of a client process.  Clients are numbered independently of
/// nodes; the network fabric keeps the two address spaces separate (clients
/// talk to nodes through the dedicated client NIC, as in Aardvark/RBFT).
enum class ClientId : std::uint32_t {};

/// Identifier of a protocol instance (0 = master initially; which instance
/// is master is a function of the instance-change round).
enum class InstanceId : std::uint32_t {};

/// A view number inside one protocol instance.  The primary of instance i
/// in view v runs on node (v + i) mod N, which guarantees at most one
/// primary per node (paper §IV-A).
enum class ViewId : std::uint64_t {};

/// A sequence number assigned by a primary to a batch of requests.
enum class SeqNum : std::uint64_t {};

/// Client-chosen request identifier; monotonically increasing per client.
enum class RequestId : std::uint64_t {};

[[nodiscard]] constexpr std::uint32_t raw(NodeId id) noexcept { return static_cast<std::uint32_t>(id); }
[[nodiscard]] constexpr std::uint32_t raw(ClientId id) noexcept { return static_cast<std::uint32_t>(id); }
[[nodiscard]] constexpr std::uint32_t raw(InstanceId id) noexcept { return static_cast<std::uint32_t>(id); }
[[nodiscard]] constexpr std::uint64_t raw(ViewId id) noexcept { return static_cast<std::uint64_t>(id); }
[[nodiscard]] constexpr std::uint64_t raw(SeqNum id) noexcept { return static_cast<std::uint64_t>(id); }
[[nodiscard]] constexpr std::uint64_t raw(RequestId id) noexcept { return static_cast<std::uint64_t>(id); }

[[nodiscard]] constexpr SeqNum next(SeqNum n) noexcept { return SeqNum{raw(n) + 1}; }
[[nodiscard]] constexpr ViewId next(ViewId v) noexcept { return ViewId{raw(v) + 1}; }
[[nodiscard]] constexpr RequestId next(RequestId r) noexcept { return RequestId{raw(r) + 1}; }

/// Number of faults tolerated for a cluster of `n` nodes: f = floor((n-1)/3).
[[nodiscard]] constexpr std::uint32_t max_faults(std::uint32_t n) noexcept { return (n - 1) / 3; }

/// Minimum cluster size tolerating `f` faults: N = 3f + 1.
[[nodiscard]] constexpr std::uint32_t cluster_size(std::uint32_t f) noexcept { return 3 * f + 1; }

/// Largest supported cluster: a node records which peers vouched for a
/// request as a 64-bit NodeId mask.
inline constexpr std::uint32_t kMaxNodes = 64;

/// Quorum sizes used throughout PBFT-style protocols.
[[nodiscard]] constexpr std::uint32_t prepare_quorum(std::uint32_t f) noexcept { return 2 * f; }
[[nodiscard]] constexpr std::uint32_t commit_quorum(std::uint32_t f) noexcept { return 2 * f + 1; }
[[nodiscard]] constexpr std::uint32_t propagate_quorum(std::uint32_t f) noexcept { return f + 1; }

/// RBFT runs f+1 redundant protocol instances (one master, f backups):
/// necessary and sufficient to guarantee a correct instance exists.
[[nodiscard]] constexpr std::uint32_t redundant_instances(std::uint32_t f) noexcept {
    return f + 1;
}

/// Parallel-leader merged execution consumes the committed orders of all
/// f+1 redundant instances: the number of per-instance streams the
/// deterministic merge interleaves.
[[nodiscard]] constexpr std::uint32_t merge_width(std::uint32_t f) noexcept { return f + 1; }

/// SHA-256 digest of a request or batch.  Value type, comparable.
struct Digest {
    std::array<std::uint8_t, 32> bytes{};

    auto operator<=>(const Digest&) const = default;

    /// Hex rendering for logs and test failure messages.
    [[nodiscard]] std::string hex() const {
        static constexpr char kHex[] = "0123456789abcdef";
        std::string out;
        out.reserve(64);
        for (std::uint8_t b : bytes) {
            out.push_back(kHex[b >> 4]);
            out.push_back(kHex[b & 0xF]);
        }
        return out;
    }
};

/// Uniquely identifies a client request across the whole system.
struct RequestKey {
    ClientId client{};
    RequestId rid{};

    auto operator<=>(const RequestKey&) const = default;
};

}  // namespace rbft
