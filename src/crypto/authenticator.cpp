#include "crypto/authenticator.hpp"

#include "crypto/sha256.hpp"

namespace rbft::crypto {

MacAuthenticator make_authenticator(const KeyStore& keys, Principal sender,
                                    std::uint32_t node_count, const Digest& body_digest) {
    MacAuthenticator auth;
    auth.sender = sender;
    auth.macs.reserve(node_count);
    keys.mac_to_nodes(sender, node_count,
                      BytesView(body_digest.bytes.data(), body_digest.bytes.size()), auth.macs);
    keys.note_mac(node_count);
    return auth;
}

MacAuthenticator make_authenticator(const KeyStore& keys, Principal sender,
                                    std::uint32_t node_count, BytesView data) {
    keys.note_digest();
    return make_authenticator(keys, sender, node_count, sha256(data));
}

bool verify_authenticator(const KeyStore& keys, const MacAuthenticator& auth,
                          NodeId receiver, const Digest& body_digest) {
    const std::uint32_t idx = raw(receiver);
    if (idx >= auth.macs.size()) return false;
    keys.note_mac();
    return macs_equal(keys.mac(auth.sender, Principal::node(receiver),
                               BytesView(body_digest.bytes.data(), body_digest.bytes.size())),
                      auth.macs[idx]);
}

bool verify_authenticator(const KeyStore& keys, const MacAuthenticator& auth,
                          NodeId receiver, BytesView data) {
    keys.note_digest();
    return verify_authenticator(keys, auth, receiver, sha256(data));
}

}  // namespace rbft::crypto
