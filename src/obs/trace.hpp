// Flight recorder: a fixed-capacity ring of typed protocol events stamped
// with simulated time.
//
// The ring records the most recent window of protocol activity (request
// lifecycle, three-phase ordering per instance, view / protocol-instance
// changes, monitoring verdicts with their observed throughput ratios,
// crypto-cost charges, NIC samples and closures).  When full, the oldest
// events are overwritten — it is a flight recorder, not a full log — and
// the count of evicted events is retained for honest reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace rbft::obs {

enum class EventType : std::uint8_t {
    // Request lifecycle (node scope).
    kRequestReceived,    // a = client, b = rid
    kRequestDispatched,  // a = client, b = rid
    kRequestExecuted,    // a = client, b = rid
    // Three-phase ordering (node + instance scope).
    kPrePrepareSent,      // a = seq, b = view, x = batch size
    kPrePrepareAccepted,  // a = seq, b = view, x = batch size
    kPrepared,            // a = seq, b = view
    kCommitted,           // a = seq, b = view
    kBatchDelivered,      // a = seq, b = requests in batch, x = order latency (s)
    kBatchFingerprint,    // a = seq, b = FNV-1a over the batch's (client, rid) pairs, x = view
    kCheckpointStable,    // a = stable seq, b = checkpoint votes held
    kStateTransfer,       // a = first skipped seq, b = adopted checkpoint, x = held PPs skipped
    // View / protocol-instance management.
    kViewChangeStart,      // a = target view
    kViewInstalled,        // a = installed view
    kInstanceChangeVote,   // a = cpi voted against, b = reason code
    kInstanceChangeDone,   // a = new cpi
    kMonitorVerdict,       // a = window requests, b = verdict code, x = ratio vs Δ
    // Substrate.
    kCryptoCharge,  // a = op code (0 mac, 1 sig verify, 2 sig sign), x = cost (s)
    kNicSample,     // a = queue depth (ns of backlog), b = packed source addr
    kNicClosed,     // a = peer node whose NIC we closed
    kMessageDropped,  // a = packed source addr, b = drop reason code
    // Fault injection lifecycle (src/fault).
    kNodeCrashed,       // node = crashed replica
    kNodeRestarted,     // node = recovered replica
    kPartitionStarted,  // a = group count
    kPartitionHealed,
    kLinkDegraded,  // a, b = link endpoint node ids, x = injected loss prob
    kLinkRestored,  // a, b = link endpoint node ids
    kNicDegraded,   // node = owner, x = bandwidth scale
    kNicRestored,   // node = owner
};

/// Monitoring verdict codes (TraceEvent::b for kMonitorVerdict).
enum : std::uint64_t {
    kVerdictOk = 0,
    kVerdictBelowDelta = 1,
    kVerdictVoted = 2,
    /// Enough traffic to judge, but zero backup progress — the paper's
    /// flooding attacks land here (nothing to compare the master against).
    kVerdictNotJudged = 3,
};

/// Message-drop reason codes (TraceEvent::b for kMessageDropped).
enum : std::uint64_t {
    kDropClosedNic = 0,
    kDropLoss = 1,
    kDropPartition = 2,
    kDropNodeDown = 3,
};

[[nodiscard]] constexpr const char* event_name(EventType t) noexcept {
    switch (t) {
        case EventType::kRequestReceived: return "request_received";
        case EventType::kRequestDispatched: return "request_dispatched";
        case EventType::kRequestExecuted: return "request_executed";
        case EventType::kPrePrepareSent: return "pre_prepare_sent";
        case EventType::kPrePrepareAccepted: return "pre_prepare_accepted";
        case EventType::kPrepared: return "prepared";
        case EventType::kCommitted: return "committed";
        case EventType::kBatchDelivered: return "batch_delivered";
        case EventType::kBatchFingerprint: return "batch_fingerprint";
        case EventType::kCheckpointStable: return "checkpoint_stable";
        case EventType::kStateTransfer: return "state_transfer";
        case EventType::kViewChangeStart: return "view_change_start";
        case EventType::kViewInstalled: return "view_installed";
        case EventType::kInstanceChangeVote: return "instance_change_vote";
        case EventType::kInstanceChangeDone: return "instance_change_done";
        case EventType::kMonitorVerdict: return "monitor_verdict";
        case EventType::kCryptoCharge: return "crypto_charge";
        case EventType::kNicSample: return "nic_sample";
        case EventType::kNicClosed: return "nic_closed";
        case EventType::kMessageDropped: return "message_dropped";
        case EventType::kNodeCrashed: return "node_crashed";
        case EventType::kNodeRestarted: return "node_restarted";
        case EventType::kPartitionStarted: return "partition_started";
        case EventType::kPartitionHealed: return "partition_healed";
        case EventType::kLinkDegraded: return "link_degraded";
        case EventType::kLinkRestored: return "link_restored";
        case EventType::kNicDegraded: return "nic_degraded";
        case EventType::kNicRestored: return "nic_restored";
    }
    return "?";
}

struct TraceEvent {
    TimePoint at{};
    EventType type{};
    std::uint32_t node = kNoNode;
    std::uint32_t instance = kNoInstance;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double x = 0.0;
};

class TraceRing {
public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    explicit TraceRing(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {
        buffer_.reserve(capacity_);
    }

    void record(const TraceEvent& event) {
        if (capacity_ == 0) return;
        if (buffer_.size() < capacity_) {
            buffer_.push_back(event);
        } else {
            buffer_[head_] = event;
            head_ = (head_ + 1) % capacity_;
        }
        ++recorded_;
    }

    /// Events currently retained (≤ capacity).
    [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Total events ever recorded, including overwritten ones.
    [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
    /// Events lost to wraparound.
    [[nodiscard]] std::uint64_t dropped() const noexcept { return recorded_ - buffer_.size(); }

    /// Retained events, oldest first.
    [[nodiscard]] std::vector<TraceEvent> snapshot() const {
        std::vector<TraceEvent> out;
        out.reserve(buffer_.size());
        for (std::size_t i = 0; i < buffer_.size(); ++i) {
            out.push_back(buffer_[(head_ + i) % buffer_.size()]);
        }
        return out;
    }

    void clear() noexcept {
        buffer_.clear();
        head_ = 0;
        recorded_ = 0;
    }

private:
    std::size_t capacity_;
    std::vector<TraceEvent> buffer_;
    std::size_t head_ = 0;  // oldest element once the ring is full
    std::uint64_t recorded_ = 0;
};

}  // namespace rbft::obs
