#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rbft::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
    return (x >> n) | (x << (32 - n));
}

// The reference compression function (FIPS 180-4 §6.2.2).
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
    for (; blocks > 0; --blocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)
// The same function on the SHA extensions.  The state lives in two
// registers in the order the instructions want, ABEF and CDGH; each
// sha256rnds2 runs two rounds, and sha256msg1/msg2 extend the schedule
// four words at a time (W[t] for t = 16..63, from W[t-16], W[t-15], W[t-7]
// and W[t-2]).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) noexcept {
    // Byte-swaps each 32-bit lane: message words are big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i) {
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), bswap);
        }
        // Group g runs rounds 4g..4g+3 on w[g % 4] = W[4g..4g+3], then
        // overwrites that slot with W[4g+16..4g+19].
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            const __m128i wk = _mm_add_epi32(
                w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
            // Two rounds each; the state registers trade roles, so after
            // both `abef` and `cdgh` are again ABEF and CDGH.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            if (g < 12) {
                __m128i next = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
                next = _mm_add_epi32(next, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
                w[g & 3] = _mm_sha256msg2_epu32(next, w[(g + 3) & 3]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

bool cpu_has_sha_ni() noexcept {
#if defined(__x86_64__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool ssse3 = (ecx & bit_SSSE3) != 0;
    const bool sse41 = (ecx & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return ssse3 && sse41 && (ebx & bit_SHA) != 0;
#else
    return false;
#endif
}

}  // namespace

bool sha_ni_available() noexcept {
    static const bool available = cpu_has_sha_ni();
    return available;
}

Sha256::Sha256() noexcept : Sha256(Sha256Engine::kShaNi) {}

Sha256::Sha256(Sha256Engine engine) noexcept : compress_(&compress_portable) {
#if defined(__x86_64__)
    if (engine == Sha256Engine::kShaNi && sha_ni_available()) compress_ = &compress_shani;
#else
    (void)engine;
#endif
    reset();
}

void Sha256::reset() noexcept {
    std::memcpy(state_, kInit, sizeof(state_));
    total_len_ = 0;
    blocks_ = 0;
    buffer_len_ = 0;
}

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) noexcept {
    compress_(state_, data, blocks);
    blocks_ += blocks;
}

void Sha256::update(BytesView data) noexcept {
    if (data.empty()) return;  // data() may be null: no memcpy
    total_len_ += data.size();
    std::size_t offset = 0;

    if (buffer_len_ > 0) {
        const std::size_t take = std::min(data.size(), std::size_t{64} - buffer_len_);
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset = take;
        if (buffer_len_ == 64) {
            compress(buffer_, 1);
            buffer_len_ = 0;
        }
    }

    if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
        compress(data.data() + offset, blocks);
        offset += blocks * 64;
    }

    if (offset < data.size()) {
        buffer_len_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, buffer_len_);
    }
}

Digest Sha256::finish() noexcept {
    const std::uint64_t bit_len = total_len_ * 8;

    // Padding: 0x80, zeros, 64-bit big-endian length.
    std::uint8_t pad[72];
    std::size_t pad_len = 0;
    pad[pad_len++] = 0x80;
    const std::size_t rem = (buffer_len_ + 1) % 64;
    const std::size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
    std::memset(pad + pad_len, 0, zeros);
    pad_len += zeros;
    for (int i = 7; i >= 0; --i) {
        pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (i * 8));
    }
    update(BytesView(pad, pad_len));

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Digest sha256(BytesView data) noexcept {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

}  // namespace rbft::crypto
