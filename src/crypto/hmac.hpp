// HMAC-SHA256 (RFC 2104) and a 128-bit truncated MAC type.
//
// The paper authenticates every message with MACs or MAC authenticators
// (one MAC per receiving node) and signs client requests.  We keep the MACs
// real so tests can verify actual forgery resistance within the model
// (without the shared key, a faulty node cannot fabricate a valid tag).
#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace rbft::crypto {

/// A 128-bit message authentication tag (SHA-256 HMAC truncated to 16 bytes,
/// as commonly done by PBFT-family implementations to keep messages small).
struct Mac {
    std::array<std::uint8_t, 16> bytes{};
    auto operator<=>(const Mac&) const = default;
};

/// A 256-bit symmetric key shared pairwise between two principals.
struct SymmetricKey {
    std::array<std::uint8_t, 32> bytes{};
    auto operator<=>(const SymmetricKey&) const = default;
};

/// A key's HMAC-SHA256 precomputation: the hash states after absorbing the
/// ipad and the opad block.  Built once per key, it saves two of the four
/// compressions an HMAC over a 32-byte digest otherwise runs.
class HmacKey {
public:
    explicit HmacKey(const SymmetricKey& key) noexcept : HmacKey(key, Sha256{}) {}
    /// As above, compressing with `engine` (tests compare the engines).
    HmacKey(const SymmetricKey& key, Sha256Engine engine) noexcept
        : HmacKey(key, Sha256{engine}) {}

    /// HMAC-SHA256 over `data`; adds the blocks it compresses to `blocks`.
    [[nodiscard]] Digest hmac(BytesView data, std::uint64_t& blocks) const noexcept;
    /// The same, truncated to the wire tag.
    [[nodiscard]] Mac mac(BytesView data, std::uint64_t& blocks) const noexcept;

    /// Blocks the precomputation compressed (one per pad).
    [[nodiscard]] std::uint64_t setup_blocks() const noexcept {
        return inner_.blocks() + outer_.blocks();
    }

private:
    HmacKey(const SymmetricKey& key, const Sha256& fresh) noexcept;

    Sha256 inner_;
    Sha256 outer_;
};

/// Full HMAC-SHA256 over `data` with `key`, from scratch (four compressions
/// for a short message).
[[nodiscard]] Digest hmac_sha256(const SymmetricKey& key, BytesView data) noexcept;

/// Truncated tag used on the wire.
[[nodiscard]] Mac compute_mac(const SymmetricKey& key, BytesView data) noexcept;

/// Constant-time-style comparison (the simulator has no timing side channel,
/// but the API mirrors what a production library must do).
[[nodiscard]] bool macs_equal(const Mac& a, const Mac& b) noexcept;

/// Recomputes the tag over `data` and compares it with macs_equal.
[[nodiscard]] bool verify_mac(const SymmetricKey& key, BytesView data, const Mac& tag) noexcept;

}  // namespace rbft::crypto
