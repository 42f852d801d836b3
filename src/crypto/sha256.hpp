// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Digests are used for request identifiers ordered by the protocol
// instances (the paper orders "the client id, request id and digest" rather
// than whole request payloads, §IV-B step 2) and as the compression core of
// HMAC and of the simulated signature scheme.
//
// Two compression functions produce the same digests: a portable one (the
// reference, and the fallback) and one on the x86 SHA extensions (SHA-NI).
// CPUID picks the default once per process; tests can name either.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace rbft::crypto {

enum class Sha256Engine : std::uint8_t { kPortable, kShaNi };

/// True when this CPU has the SHA extensions (and this build can use them).
[[nodiscard]] bool sha_ni_available() noexcept;

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    /// Hashes with SHA-NI where available, else with the portable engine.
    Sha256() noexcept;
    /// Hashes with `engine`; kShaNi falls back to portable on a CPU
    /// without SHA-NI (sha_ni_available() tells which one runs).
    explicit Sha256(Sha256Engine engine) noexcept;

    /// Resets to the initial hash state (allows object reuse).
    void reset() noexcept;

    /// Absorbs `data`; may be called repeatedly.
    void update(BytesView data) noexcept;

    /// Finalizes and returns the digest.  The object must be reset() before
    /// further use.
    [[nodiscard]] Digest finish() noexcept;

    /// 64-byte blocks compressed since construction or reset().  A copy
    /// carries the count of the state it copied.
    [[nodiscard]] std::uint64_t blocks() const noexcept { return blocks_; }

private:
    /// A compression function: absorbs `blocks` consecutive 64-byte blocks
    /// into `state`.
    using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks) noexcept;

    void compress(const std::uint8_t* data, std::size_t blocks) noexcept;

    CompressFn compress_;
    std::uint32_t state_[8]{};
    std::uint64_t total_len_ = 0;
    std::uint64_t blocks_ = 0;
    std::uint8_t buffer_[64]{};
    std::size_t buffer_len_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] Digest sha256(BytesView data) noexcept;

}  // namespace rbft::crypto
