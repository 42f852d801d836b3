// Length-prefixed framing for the real-socket transport.
//
// Wire layout of one frame (little-endian):
//   u32  magic   (kFrameMagic — catches desync and non-protocol peers)
//   u32  length  (payload bytes; 0 < length <= kMaxFramePayload)
//   ...  payload (one runtime::Envelope)
//
// FrameReader is an incremental parser over an arbitrary stream of chunks:
// TCP gives no message boundaries, so a frame may arrive a byte at a time
// or many frames may arrive fused in one read.  The reader is the first
// line of defense against garbage — a bad magic or an oversized length
// poisons the reader permanently and the transport quarantines the
// connection (Aardvark-style: resources are never spent resynchronizing
// with a peer that has already sent garbage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace rbft::runtime {

inline constexpr std::uint32_t kFrameMagic = 0x52424654;  // "RBFT"
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Hard payload cap.  The largest legitimate message is a NEW-VIEW carrying
/// O(n) view-change proofs; 4 MiB leaves two orders of magnitude of slack
/// while bounding what one malicious peer can make us buffer.
inline constexpr std::size_t kMaxFramePayload = 4u << 20;

/// Serializes one payload into a framed byte string.
[[nodiscard]] Bytes encode_frame(BytesView payload);

/// Incremental frame parser.  Feed it received chunks; pop complete frames.
class FrameReader {
public:
    /// Appends received bytes.  Returns false — and latches the poisoned
    /// state — when the stream is malformed (bad magic / zero or oversized
    /// length).  Once poisoned, all further input is rejected.
    bool feed(BytesView chunk);

    /// Pops the next complete frame's payload, if one is fully buffered.
    [[nodiscard]] std::optional<Bytes> next();

    [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
    /// Bytes currently buffered (partial frame + any parsed-but-unpopped).
    [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

private:
    Bytes buffer_;
    std::size_t consumed_ = 0;
    bool poisoned_ = false;
};

}  // namespace rbft::runtime
