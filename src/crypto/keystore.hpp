// Key management for a simulated deployment.
//
// Principals are either nodes or clients.  The keystore derives, from one
// master secret, (a) a pairwise symmetric key for every (principal,
// principal) pair — used for MACs and MAC authenticators — and (b) a
// per-principal signing key for the simulated signature scheme.
//
// Every key is derived on first use and kept with its HMAC midstates
// (crypto::HmacKey), so a MAC over a 32-byte digest costs two SHA-256
// compressions.  The keys a principal shares with the nodes form one row
// indexed by node id: node rows sit in a dense node x node array, and a
// client's row is found by one map lookup (client ids are sparse), so an
// authenticator costs at most one lookup however many MACs it holds.
//
// Threat-model note: in the simulation all keys live in one process, so
// confidentiality is enforced by API discipline, not isolation.  Honest
// code only ever calls `signer(p)` for its own principal; the Byzantine
// behaviours implemented in src/attacks never do otherwise.  What the model
// *does* preserve is the cost asymmetry and verification semantics
// (valid/invalid) that drive the paper's results.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/det.hpp"
#include "common/types.hpp"
#include "crypto/hmac.hpp"

namespace rbft::crypto {

/// A node or a client, in one address space for keying purposes.
struct Principal {
    enum class Kind : std::uint8_t { kNode, kClient };

    Kind kind = Kind::kNode;
    std::uint32_t index = 0;

    auto operator<=>(const Principal&) const = default;

    [[nodiscard]] static Principal node(NodeId id) noexcept {
        return {Kind::kNode, raw(id)};
    }
    [[nodiscard]] static Principal client(ClientId id) noexcept {
        return {Kind::kClient, raw(id)};
    }
};

/// A detached "signature": HMAC under the signer's private signing key.
/// Verification is done through the keystore (which stands in for the PKI);
/// the *cost* of generation/verification is charged by the CostModel as if
/// this were RSA/ECDSA, which is what matters for the reproduction.
struct Signature {
    Principal signer{};
    Digest tag{};

    auto operator<=>(const Signature&) const = default;
};

/// Deterministic tally of *real* crypto work performed through a keystore
/// (as opposed to the simulated CPU charges of crypto::CostModel).  Pure
/// function of the run seed, so the profiler exports these in its
/// byte-comparable block; ROADMAP item 2 ("authenticator fast path") drove
/// sha_blocks per request down without changing results.
struct CryptoStats {
    std::uint64_t digests_computed = 0;  // one-shot SHA-256 over message bodies
    std::uint64_t macs_computed = 0;     // authenticator MACs (incl. verification)
    std::uint64_t sigs_computed = 0;     // simulated sign/verify HMACs
    std::uint64_t keys_derived = 0;      // HKDF-style derivations actually run
    std::uint64_t key_cache_hits = 0;    // derivations avoided by the memo
    std::uint64_t sha_blocks = 0;        // SHA-256 compressions run by keystore HMACs
};

class KeyStore {
public:
    /// Derives all keys deterministically from `master_secret`.
    explicit KeyStore(std::uint64_t master_secret) noexcept;

    /// Symmetric key shared between `a` and `b` (order-independent).
    /// Derivations are memoized: the first use of a pair runs the HKDF,
    /// every later use — here or by a MAC below — is a cache hit
    /// (`CryptoStats::key_cache_hits`).
    [[nodiscard]] SymmetricKey pairwise_key(Principal a, Principal b) const;

    /// MAC over `data` under the pairwise key of `a` and `b`; equal to
    /// compute_mac(pairwise_key(a, b), data), from the cached midstates.
    [[nodiscard]] Mac mac(Principal a, Principal b, BytesView data) const;

    /// Appends to `out` one MAC over `data` per node in [0, node_count),
    /// each under the key `sender` shares with that node.
    void mac_to_nodes(Principal sender, std::uint32_t node_count, BytesView data,
                      std::vector<Mac>& out) const;

    /// Signs `data` on behalf of `p`.
    [[nodiscard]] Signature sign(Principal p, BytesView data) const;

    /// Verifies that `sig` is `sig.signer`'s signature over `data`.
    [[nodiscard]] bool verify(const Signature& sig, BytesView data) const;

    /// Hash-then-sign convenience: sign/verify over a pre-computed digest of
    /// the covered bytes.  Lets hot paths stream the body through an
    /// incremental hasher instead of materializing a signing buffer; work
    /// accounting is identical to the BytesView forms.
    [[nodiscard]] Signature sign(Principal p, const Digest& digest) const {
        return sign(p, BytesView(digest.bytes.data(), digest.bytes.size()));
    }
    [[nodiscard]] bool verify(const Signature& sig, const Digest& digest) const {
        return verify(sig, BytesView(digest.bytes.data(), digest.bytes.size()));
    }

    // -- Work accounting ------------------------------------------------------

    [[nodiscard]] const CryptoStats& stats() const noexcept { return stats_; }

    /// Tally hooks for crypto work counted by what it is for rather than by
    /// the keystore (authenticator MACs, body digests).  const because
    /// callers hold `const KeyStore&`; the tally is observability, not key
    /// state.
    void note_digest(std::uint64_t n = 1) const noexcept { stats_.digests_computed += n; }
    void note_mac(std::uint64_t n = 1) const noexcept { stats_.macs_computed += n; }

private:
    struct PairKey {
        SymmetricKey key;
        HmacKey hmac;
    };
    /// A pair's cache slot: empty until the pair's key is first used.
    using Slot = std::optional<PairKey>;

    /// The slot of pair (a, b), growing the tables to hold it.
    [[nodiscard]] Slot& slot(Principal a, Principal b) const;
    /// The slots `p` shares with nodes [0, node_count), indexed by node id.
    [[nodiscard]] Slot* node_row(Principal p, std::uint32_t node_count) const;
    /// `s` after deriving pair (a, b)'s key into it on first use.
    const PairKey& fill(Slot& s, Principal a, Principal b) const;
    [[nodiscard]] const HmacKey& signing_key(Principal p) const;
    [[nodiscard]] SymmetricKey derive(BytesView label) const;

    HmacKey root_;
    // Memoized derivations.  mutable: caching and tallying do not change the
    // observable key material (same master secret -> same keys either way).
    // node x node pairs, row-major over node_cols_ columns; pair (i, j) is
    // stored at both (i, j) and (j, i) so every node's row is contiguous.
    mutable std::vector<Slot> node_pairs_;
    mutable std::uint32_t node_cols_ = 0;
    mutable det::map<std::uint32_t, std::vector<Slot>> client_rows_;  // by client id
    mutable det::map<std::pair<Principal, Principal>, Slot> client_pairs_;
    mutable det::map<Principal, HmacKey> signing_cache_;
    mutable CryptoStats stats_;
};

}  // namespace rbft::crypto
