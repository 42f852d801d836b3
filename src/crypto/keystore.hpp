// Key management for a simulated deployment.
//
// Principals are either nodes or clients.  The keystore derives, from one
// master secret, (a) a pairwise symmetric key for every (principal,
// principal) pair — used for MACs and MAC authenticators — and (b) a
// per-principal signing key for the simulated signature scheme.
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
#include <utility>

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
/// byte-comparable block; ROADMAP item 3 ("authenticator fast path") is
/// about driving these numbers down without changing results.
struct CryptoStats {
    std::uint64_t digests_computed = 0;  // one-shot SHA-256 over message bodies
    std::uint64_t macs_computed = 0;     // HMAC computations (incl. verification)
    std::uint64_t sigs_computed = 0;     // simulated sign/verify HMACs
    std::uint64_t keys_derived = 0;      // HKDF-style derivations actually run
    std::uint64_t key_cache_hits = 0;    // derivations avoided by the memo
};

class KeyStore {
public:
    /// Derives all keys deterministically from `master_secret`.
    explicit KeyStore(std::uint64_t master_secret) noexcept;

    /// Symmetric key shared between `a` and `b` (order-independent).
    /// Derivations are memoized: the first call per pair runs the HKDF, every
    /// later call is a map hit (`CryptoStats::key_cache_hits`).
    [[nodiscard]] SymmetricKey pairwise_key(Principal a, Principal b) const;

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

    /// Tally hooks for crypto work done *with* keystore material but outside
    /// it (authenticator MACs, body digests).  const because callers hold
    /// `const KeyStore&`; the tally is observability, not key state.
    void note_digest(std::uint64_t n = 1) const noexcept { stats_.digests_computed += n; }
    void note_mac(std::uint64_t n = 1) const noexcept { stats_.macs_computed += n; }

private:
    [[nodiscard]] SymmetricKey signing_key(Principal p) const;

    SymmetricKey root_{};
    // Memoized derivations.  mutable: caching and tallying do not change the
    // observable key material (same master secret -> same keys either way).
    mutable det::map<std::pair<Principal, Principal>, SymmetricKey> pairwise_cache_;
    mutable det::map<Principal, SymmetricKey> signing_cache_;
    mutable CryptoStats stats_;
};

}  // namespace rbft::crypto
