#include "crypto/hmac.hpp"

#include <cstring>

#include "crypto/sha256.hpp"

namespace rbft::crypto {

HmacKey::HmacKey(const SymmetricKey& key, const Sha256& fresh) noexcept
    : inner_(fresh), outer_(fresh) {
    // Key is exactly 32 bytes < 64-byte block size, so no pre-hashing needed.
    std::uint8_t ipad[64];
    std::uint8_t opad[64];
    std::memset(ipad, 0x36, sizeof(ipad));
    std::memset(opad, 0x5c, sizeof(opad));
    for (std::size_t i = 0; i < key.bytes.size(); ++i) {
        ipad[i] ^= key.bytes[i];
        opad[i] ^= key.bytes[i];
    }
    inner_.update(BytesView(ipad, sizeof(ipad)));
    outer_.update(BytesView(opad, sizeof(opad)));
}

Digest HmacKey::hmac(BytesView data, std::uint64_t& blocks) const noexcept {
    Sha256 inner = inner_;
    inner.update(data);
    const Digest inner_digest = inner.finish();

    Sha256 outer = outer_;
    outer.update(BytesView(inner_digest.bytes.data(), inner_digest.bytes.size()));
    const Digest out = outer.finish();
    blocks += inner.blocks() + outer.blocks() - setup_blocks();
    return out;
}

Mac HmacKey::mac(BytesView data, std::uint64_t& blocks) const noexcept {
    const Digest full = hmac(data, blocks);
    Mac tag;
    std::memcpy(tag.bytes.data(), full.bytes.data(), tag.bytes.size());
    return tag;
}

Digest hmac_sha256(const SymmetricKey& key, BytesView data) noexcept {
    std::uint64_t blocks = 0;
    return HmacKey(key).hmac(data, blocks);
}

Mac compute_mac(const SymmetricKey& key, BytesView data) noexcept {
    std::uint64_t blocks = 0;
    return HmacKey(key).mac(data, blocks);
}

bool macs_equal(const Mac& a, const Mac& b) noexcept {
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < a.bytes.size(); ++i) {
        diff |= static_cast<std::uint8_t>(a.bytes[i] ^ b.bytes[i]);
    }
    return diff == 0;
}

bool verify_mac(const SymmetricKey& key, BytesView data, const Mac& tag) noexcept {
    return macs_equal(compute_mac(key, data), tag);
}

}  // namespace rbft::crypto
