// Wire serialization: little-endian, length-prefixed, no alignment.
//
// Every protocol message implements encode(WireWriter&)/decode(WireReader&).
// The simulator's hot path passes messages as shared pointers; wire_size()
// (used for link/CPU cost accounting) models the *production* encoding
// (128-byte RSA signatures, no simulation side-channels), while
// encode()/decode() serialize the full simulation state — round-trip tests
// assert field fidelity.
//
// The writer is flat and single-pass with two backing modes:
//   WireWriter w;              // owns a fresh buffer
//   WireWriter w(hasher);      // streams fields into an incremental SHA-256
//                              // and materializes no buffer at all
// The second mode is what signed_digest()-style paths use: they only ever
// digested the buffer, so the buffer (and its alloc + copy) was pure waste.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace rbft::net {

/// Deterministic buffer-churn accounting for the wire path: bytes that were
/// physically copied into owned heap storage (growth relocations and
/// extraction copies) and heap (re)allocations performed.  Writes into
/// pre-sized reused buffers and scalar field parses are serialization work,
/// not churn, and are not counted — so a steady-state encode/decode over
/// recycled buffers reports zero for both.  Pure functions of the encoded
/// data and buffer-capacity history, so they belong in the profiler's
/// byte-comparable block.
struct WireStats {
    std::uint64_t bytes_copied = 0;
    std::uint64_t allocs = 0;
};

class WireWriter {
public:
    /// Owns its buffer; every encode allocates.  Fields are laid down
    /// through a raw cursor and the buffer is trimmed lazily by
    /// buffer()/take().
    WireWriter() noexcept = default;

    /// Streaming-digest sink: fields feed `hasher` directly and no byte
    /// buffer exists.  buffer()/take() are invalid in this mode; size()
    /// reports bytes streamed.
    explicit WireWriter(crypto::Sha256& hasher) noexcept : sink_(&hasher) {}

    WireWriter(const WireWriter&) = delete;
    WireWriter& operator=(const WireWriter&) = delete;

    void u8(std::uint8_t v) { append(&v, 1); }
    void u16(std::uint16_t v) { put_le(v); }
    void u32(std::uint32_t v) { put_le(v); }
    void u64(std::uint64_t v) { put_le(v); }

    void bytes(BytesView b) {
        u32(static_cast<std::uint32_t>(b.size()));
        append(b.data(), b.size());
    }

    void raw(BytesView b) { append(b.data(), b.size()); }

    void digest(const Digest& d) { append(d.bytes.data(), d.bytes.size()); }

    [[nodiscard]] const Bytes& buffer() const noexcept {
        owned_.resize(len_);  // shrink-only: extent never falls below len_
        return owned_;
    }
    [[nodiscard]] Bytes take() noexcept {
        owned_.resize(len_);
        Bytes moved = std::move(owned_);
        len_ = 0;
        return moved;
    }
    [[nodiscard]] std::size_t size() const noexcept {
        return sink_ != nullptr ? streamed_ : len_;
    }

    /// Buffer churn since construction (see WireStats).
    [[nodiscard]] WireStats stats() const noexcept { return stats_; }

private:
    void append(const std::uint8_t* p, std::size_t n) {
        if (n == 0) return;  // an empty span's data() may be null: no memcpy
        if (sink_ != nullptr) {
            sink_->update(BytesView(p, n));
            streamed_ += n;
            return;
        }
        // The vector's size is a writable extent kept at capacity; `len_`
        // is the write cursor.  The warm path is one branch + memcpy with
        // no per-field vector bookkeeping.
        if (len_ + n > owned_.size()) grow(n);
        std::memcpy(owned_.data() + len_, p, n);
        len_ += n;
    }

    void grow(std::size_t n) {
        const std::size_t need = len_ + n;
        if (need > owned_.capacity()) {
            stats_.allocs += 1;
            stats_.bytes_copied += len_;  // growth relocates the live prefix
        }
        std::size_t target = owned_.capacity();
        if (need > target) {
            target = std::max(target * 2, std::max(need, std::size_t{64}));
        }
        owned_.resize(target);  // value-init of the tail happens once per growth
    }

    template <typename T>
    void put_le(T v) {
        std::uint8_t le[sizeof(T)];
        if constexpr (std::endian::native == std::endian::little) {
            // Host representation already is the wire representation.
            std::memcpy(le, &v, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i) {
                le[i] = static_cast<std::uint8_t>(v >> (i * 8));
            }
        }
        append(le, sizeof(T));
    }

    // mutable: buffer() trims the writable extent (see append()) to len_.
    mutable Bytes owned_;
    std::size_t len_ = 0;
    crypto::Sha256* sink_ = nullptr;
    std::size_t streamed_ = 0;
    WireStats stats_;
};

/// Bounds-checked reader.  After any failed extraction `ok()` turns false
/// and all further reads return zero values; callers check once at the end.
class WireReader {
public:
    explicit WireReader(BytesView data) noexcept : data_(data) {}

    std::uint8_t u8() { return get_le<std::uint8_t>(); }
    std::uint16_t u16() { return get_le<std::uint16_t>(); }
    std::uint32_t u32() { return get_le<std::uint32_t>(); }
    std::uint64_t u64() { return get_le<std::uint64_t>(); }

    /// Length-prefixed bytes into a freshly allocated buffer (counted as
    /// churn).  Prefer view()/bytes_into() on hot paths.
    Bytes bytes() {
        const std::uint32_t n = u32();
        if (!ok_ || pos_ + n > data_.size()) {
            ok_ = false;
            return {};
        }
        stats_.bytes_copied += n;
        if (n > 0) stats_.allocs += 1;  // the out-buffer below
        Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
        pos_ += n;
        return out;
    }

    /// Zero-copy view of a length-prefixed byte field.  Valid only while
    /// the underlying buffer outlives the view — for transient use during
    /// decode, not for retention inside a message.
    BytesView view() {
        const std::uint32_t n = u32();
        if (!ok_ || pos_ + n > data_.size()) {
            ok_ = false;
            return {};
        }
        BytesView out(data_.data() + pos_, n);
        pos_ += n;
        return out;
    }

    /// Length-prefixed bytes copied into `out`, reusing its capacity; an
    /// allocation is counted only when `out` must actually grow.
    void bytes_into(Bytes& out) {
        const std::uint32_t n = u32();
        if (!ok_ || pos_ + n > data_.size()) {
            ok_ = false;
            out.clear();
            return;
        }
        stats_.bytes_copied += n;
        if (n > out.capacity()) stats_.allocs += 1;
        out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                   data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
        pos_ += n;
    }

    /// Fixed-size raw field (no length prefix) copied into caller storage;
    /// the bulk form of n consecutive u8() reads.
    void raw_into(std::uint8_t* out, std::size_t n) {
        if (pos_ + n > data_.size()) {
            ok_ = false;
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
    }

    Digest digest() {
        Digest d;
        if (pos_ + d.bytes.size() > data_.size()) {
            ok_ = false;
            return d;
        }
        std::memcpy(d.bytes.data(), data_.data() + pos_, d.bytes.size());
        pos_ += d.bytes.size();
        return d;
    }

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

    /// Bytes extracted into owned buffers and allocations performed.
    [[nodiscard]] WireStats stats() const noexcept { return stats_; }

private:
    template <typename T>
    T get_le() {
        if (pos_ + sizeof(T) > data_.size()) {
            ok_ = false;
            return T{};
        }
        T v{};
        if constexpr (std::endian::native == std::endian::little) {
            // Host representation already is the wire representation.
            std::memcpy(&v, data_.data() + pos_, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i) {
                v = static_cast<T>(v |
                                   (static_cast<std::uint64_t>(data_[pos_ + i]) << (i * 8)));
            }
        }
        pos_ += sizeof(T);
        return v;
    }

    // The reader *is* the borrow seam: it never outlives the decode call
    // (see class comment), so holding the view is the whole point.
    BytesView data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    WireStats stats_;
};

}  // namespace rbft::net
