#include "crypto/keystore.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"

namespace rbft::crypto {
namespace {

void append_principal(Bytes& buf, Principal p) {
    buf.push_back(static_cast<std::uint8_t>(p.kind));
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(p.index >> (i * 8)));
}

SymmetricKey root_key(std::uint64_t master_secret) noexcept {
    std::uint8_t seed[8];
    for (int i = 0; i < 8; ++i) seed[i] = static_cast<std::uint8_t>(master_secret >> (i * 8));
    const Digest d = sha256(BytesView(seed, sizeof(seed)));
    SymmetricKey key;
    std::memcpy(key.bytes.data(), d.bytes.data(), key.bytes.size());
    return key;
}

bool is_node(Principal p) noexcept { return p.kind == Principal::Kind::kNode; }

}  // namespace

KeyStore::KeyStore(std::uint64_t master_secret) noexcept : root_(root_key(master_secret)) {}

SymmetricKey KeyStore::derive(BytesView label) const {
    const Digest d = root_.hmac(label, stats_.sha_blocks);
    SymmetricKey key;
    std::memcpy(key.bytes.data(), d.bytes.data(), key.bytes.size());
    return key;
}

KeyStore::Slot* KeyStore::node_row(Principal p, std::uint32_t node_count) const {
    if (!is_node(p)) {
        std::vector<Slot>& row = client_rows_[p.index];
        if (row.size() < node_count) row.resize(node_count);
        return row.data();
    }
    const std::uint32_t cols = std::max(p.index + 1, node_count);
    if (cols > node_cols_) {
        std::vector<Slot> grown(static_cast<std::size_t>(cols) * cols);
        for (std::uint32_t i = 0; i < node_cols_; ++i) {
            std::move(node_pairs_.begin() + i * node_cols_,
                      node_pairs_.begin() + (i + 1) * node_cols_, grown.begin() + i * cols);
        }
        node_pairs_ = std::move(grown);
        node_cols_ = cols;
    }
    return node_pairs_.data() + static_cast<std::size_t>(p.index) * node_cols_;
}

KeyStore::Slot& KeyStore::slot(Principal a, Principal b) const {
    if (is_node(b)) return node_row(a, b.index + 1)[b.index];
    if (is_node(a)) return node_row(b, a.index + 1)[a.index];
    return client_pairs_[std::minmax(a, b)];
}

const KeyStore::PairKey& KeyStore::fill(Slot& s, Principal a, Principal b) const {
    if (s.has_value()) {
        stats_.key_cache_hits += 1;
        return *s;
    }
    // Canonical order so key(a,b) == key(b,a).
    const auto [lo, hi] = std::minmax(a, b);
    Bytes label = to_bytes("pairwise:");
    append_principal(label, lo);
    append_principal(label, hi);
    const SymmetricKey key = derive(label);
    stats_.keys_derived += 1;
    s.emplace(PairKey{key, HmacKey(key)});
    stats_.sha_blocks += s->hmac.setup_blocks();
    if (is_node(a) && is_node(b) && a != b) {
        node_pairs_[static_cast<std::size_t>(b.index) * node_cols_ + a.index] = s;
    }
    return *s;
}

SymmetricKey KeyStore::pairwise_key(Principal a, Principal b) const {
    return fill(slot(a, b), a, b).key;
}

Mac KeyStore::mac(Principal a, Principal b, BytesView data) const {
    return fill(slot(a, b), a, b).hmac.mac(data, stats_.sha_blocks);
}

void KeyStore::mac_to_nodes(Principal sender, std::uint32_t node_count, BytesView data,
                            std::vector<Mac>& out) const {
    Slot* row = node_row(sender, node_count);
    for (std::uint32_t i = 0; i < node_count; ++i) {
        const PairKey& pk = fill(row[i], sender, Principal::node(NodeId{i}));
        out.push_back(pk.hmac.mac(data, stats_.sha_blocks));
    }
}

const HmacKey& KeyStore::signing_key(Principal p) const {
    if (const auto it = signing_cache_.find(p); it != signing_cache_.end()) {
        stats_.key_cache_hits += 1;
        return it->second;
    }
    Bytes label = to_bytes("signing:");
    append_principal(label, p);
    const HmacKey& key = signing_cache_.emplace(p, HmacKey(derive(label))).first->second;
    stats_.keys_derived += 1;
    stats_.sha_blocks += key.setup_blocks();
    return key;
}

Signature KeyStore::sign(Principal p, BytesView data) const {
    stats_.sigs_computed += 1;
    return Signature{p, signing_key(p).hmac(data, stats_.sha_blocks)};
}

bool KeyStore::verify(const Signature& sig, BytesView data) const {
    stats_.sigs_computed += 1;
    const Digest expected = signing_key(sig.signer).hmac(data, stats_.sha_blocks);
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < expected.bytes.size(); ++i) {
        diff |= static_cast<std::uint8_t>(expected.bytes[i] ^ sig.tag.bytes[i]);
    }
    return diff == 0;
}

}  // namespace rbft::crypto
