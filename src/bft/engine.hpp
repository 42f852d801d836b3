// The protocol-instance engine: a PBFT-style three-phase ordering replica
// (PRE-PREPARE / PREPARE / COMMIT) with batching, checkpointing, watermarks
// and a view-change sub-protocol.
//
// One InstanceEngine is one replica of one protocol instance on one node.
// RBFT runs f+1 of these per node (paper Fig. 4); Aardvark wraps exactly
// one; Spinning wraps one in rotating-primary mode.  Per the paper (§IV-A),
// an RBFT instance "implements a full-fledged BFT protocol, very similar to
// Aardvark", except that it never starts a view change on its own — view
// changes are driven externally by the instance-change mechanism, via
// start_view_change().
//
// Execution model: the engine is pinned to one sim::CpuCore (replicas are
// processes pinned to distinct cores, Fig. 6).  Message handling charges
// verification CPU before protocol logic runs; sends charge generation CPU.
//
// Vote accounting: a PREPARE/COMMIT counts only toward the accepted
// PRE-PREPARE's (view, digest); one that arrives earlier is held until the
// PRE-PREPARE is accepted (DESIGN.md §5, item 11).
//
// A PRE-PREPARE that cannot be accepted yet is held and offered again only
// when what it waits for happens: the request it lacks is submitted or
// ordered here, or the view reaches its own.  A stable checkpoint at its
// seq or an installed later view drops it (DESIGN.md §5, item 12).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "bft/messages.hpp"
#include "common/det.hpp"
#include "common/request_key_set.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/message.hpp"
#include "net/pool.hpp"
#include "obs/recorder.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace rbft::bft {

/// Test-only correctness faults, used by src/check to plant violations the
/// invariant oracles must catch.  No configuration carries them: a harness
/// plants them on a built engine (InstanceEngine::plant_faults, or
/// core::Cluster::plant_engine_faults for a whole cluster).
struct EngineTestFaults {
    /// Bit i set ⇒ when this replica acts as primary it sends node i an
    /// *equivocating* PRE-PREPARE: same (view, seq) but a different batch
    /// (the first request duplicated), with a recomputed digest.  Unmasked
    /// peers and the primary itself keep the original batch.
    std::uint64_t equivocate_mask = 0;
    /// Overrides for the PREPARE / COMMIT quorum sizes (0 = protocol
    /// default).  Weakening these below 2f / 2f+1 lets an equivocating
    /// primary split the cluster — the agreement-oracle fixture.
    std::uint32_t prepare_quorum_override = 0;
    std::uint32_t commit_quorum_override = 0;

    [[nodiscard]] bool any() const noexcept {
        return equivocate_mask != 0 || prepare_quorum_override != 0 ||
               commit_quorum_override != 0;
    }
};

struct EngineConfig {
    InstanceId instance{};
    NodeId node{};
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    /// Batching: a PRE-PREPARE carries up to batch_max requests; a partial
    /// batch is flushed batch_delay after its first request arrives.
    std::uint32_t batch_max = 64;
    Duration batch_delay = milliseconds(1.0);
    /// Byte budget per batch, counted over request payloads (0 = unlimited).
    /// Models datagram-bounded batches (Spinning's UDP multicast): at least
    /// one request is always admitted.
    std::uint64_t batch_max_bytes = 0;

    /// Order full request bodies instead of identifiers (Aardvark mode and
    /// the RBFT ablation discussed in §VI-B).
    bool order_full_requests = false;

    /// Rotate the primary automatically after every ordered batch
    /// (Spinning, §III-C).  In this mode view == seq and proposals are
    /// strictly sequential.
    bool rotating_primary = false;

    /// Metrics registry and flight recorder of the hosting node; required.
    obs::Recorder* recorder = nullptr;

    /// Message pool shared by the hosting node (null = plain make_shared).
    net::MessagePool* message_pool = nullptr;

    /// Checkpoint every this many sequence numbers.
    std::uint64_t checkpoint_interval = 128;

    /// The replica starts in recovery mode (rebuilt after a crash): it
    /// adopts the view f+1 peers report via checkpoint piggybacks instead of
    /// waiting for an instance change it may never see.
    bool recovering = false;
    /// Periodic stall retry: if the next-to-deliver slot has made no
    /// progress for this long, re-broadcast our protocol messages for it
    /// (receivers dedupe).  Recovers quorums interrupted by partitions or
    /// message loss.  Zero disables (seed behavior).
    Duration retry_interval{};
};

/// Byzantine-primary levers used by the attack experiments.  A correct
/// replica keeps the defaults.
struct PrimaryBehavior {
    /// Minimum spacing between consecutive PRE-PREPAREs (rate-limits
    /// ordering: the "smartly malicious" throughput-degradation attacks).
    Duration inter_batch_gap{};
    /// Extra hold applied to every formed batch before sending (latency
    /// attack; also degrades throughput in rotating/sequential modes).
    Duration preprepare_delay{};
    /// Caps batch size below EngineConfig::batch_max (0 = no cap).  A
    /// rate-limiting attacker uses small batches for fine-grained control.
    std::uint32_t batch_cap = 0;
    /// Per-request admission delay, keyed on the request; used by the
    /// unfair-primary experiment (Fig. 12) to slow one client only.
    std::function<Duration(const RequestRef&)> per_request_delay;
    /// Primary sends no PRE-PREPAREs at all.
    bool silent = false;
    /// Bit i set ⇒ the PRE-PREPARE authenticator entry for node i is
    /// corrupted (selective equivocation-by-omission).
    std::uint64_t corrupt_preprepare_mac_mask = 0;
};

/// Services an engine obtains from the node hosting it.
class EngineHost {
public:
    virtual ~EngineHost() = default;

    /// Sends `m` to the replica of the same instance hosted on `dest`.
    virtual void engine_send(InstanceId instance, NodeId dest, net::MessagePtr m) = 0;

    /// An ordered batch is handed back to the node, in sequence order.
    virtual void engine_ordered(const OrderedBatch& batch) = 0;

    /// A request may be prepared only once the node cleared it (for RBFT:
    /// f+1 PROPAGATEs received, §IV-B step 4).  Baselines return true.
    virtual bool engine_request_cleared(const RequestRef& ref) = 0;

    /// A view change completed locally; `view`'s primary is now active.
    virtual void engine_view_installed(InstanceId instance, ViewId view) = 0;

    /// The node's protocol-instance-change counter, piggybacked on
    /// CHECKPOINTs so recovering replicas can rejoin the current round.
    /// Hosts without the RBFT instance-change mechanism report 0.
    [[nodiscard]] virtual std::uint64_t host_cpi() const { return 0; }
};

class InstanceEngine {
public:
    /// Max in-flight distance beyond the last stable checkpoint.
    static constexpr std::uint64_t kWatermarkWindow = 2048;

    InstanceEngine(EngineConfig config, sim::Simulator& simulator, sim::CpuCore& core,
                   const crypto::KeyStore& keys, const crypto::CostModel& costs,
                   EngineHost& host);

    // -- Node-facing API ----------------------------------------------------

    /// Hands a verified request to this replica for ordering.
    void submit(const RequestRef& ref);

    /// Delivery entry point for replica-to-replica messages.
    void on_message(NodeId from, const net::MessagePtr& m);

    /// Starts a view change towards `target` (RBFT instance change, or the
    /// hosting protocol's own policy).  No-op if `target` <= current view.
    void start_view_change(ViewId target);

    /// Marks this replica Byzantine-silent: it ignores all traffic and
    /// sends nothing (worst-attack abstention).
    void set_silent(bool silent) noexcept { silent_replica_ = silent; }

    /// Permanently silences the replica and stops its timers.  Called when
    /// the hosting node crashes: the object must outlive any simulator
    /// callbacks that captured it, but must never act again.
    void retire();

    void set_primary_behavior(PrimaryBehavior behavior) { behavior_ = std::move(behavior); }

    /// Plants correctness faults for oracle tests (a correct engine has
    /// none).  Applies from the next PRE-PREPARE sent or vote counted.
    void plant_faults(const EngineTestFaults& faults) noexcept { faults_ = faults; }

    // -- Introspection -------------------------------------------------------

    [[nodiscard]] ViewId view() const noexcept { return view_; }
    [[nodiscard]] InstanceId instance() const noexcept { return config_.instance; }
    [[nodiscard]] NodeId primary_of(ViewId v) const noexcept {
        auto candidate = static_cast<std::uint32_t>(
            config_.rotating_primary ? raw(v) % config_.n
                                     : (raw(v) + raw(config_.instance)) % config_.n);
        if (primary_filter_) {
            // Skip blacklisted nodes (Spinning, §III-C); if everything is
            // blacklisted fall back to the unfiltered choice.
            for (std::uint32_t step = 0; step < config_.n; ++step) {
                if (!primary_filter_(NodeId{candidate})) break;
                candidate = (candidate + 1) % config_.n;
            }
        }
        return NodeId{candidate};
    }

    /// Installs a predicate marking nodes that may not become primary
    /// (Spinning's blacklist).  Applies from the next view computation.
    void set_primary_filter(std::function<bool(NodeId)> is_blacklisted) {
        primary_filter_ = std::move(is_blacklisted);
    }
    [[nodiscard]] NodeId primary() const noexcept { return primary_of(view_); }
    [[nodiscard]] bool is_primary() const noexcept { return primary() == config_.node; }
    [[nodiscard]] bool view_change_in_progress() const noexcept { return in_view_change_; }
    [[nodiscard]] ViewId view_change_target() const noexcept { return vc_target_; }
    [[nodiscard]] TimePoint view_change_started_at() const noexcept { return vc_started_at_; }

    // Registry reads; a replica rebuilt after a crash continues the counts.
    [[nodiscard]] std::uint64_t total_ordered() const noexcept {
        return ctr_requests_ordered_->value();
    }
    /// Ordered keys stored individually above their client's floor.
    [[nodiscard]] std::size_t ordered_tail() const noexcept { return ordered_keys_.tail_size(); }
    [[nodiscard]] std::uint64_t preprepares_sent() const noexcept {
        return ctr_preprepares_sent_->value();
    }
    [[nodiscard]] std::uint64_t flood_discards() const noexcept { return flood_discards_; }
    [[nodiscard]] bool recovering() const noexcept { return recovering_; }
    [[nodiscard]] SeqNum last_stable() const noexcept { return last_stable_; }
    [[nodiscard]] SeqNum next_to_deliver() const noexcept { return next_deliver_; }
    [[nodiscard]] std::size_t pending_requests() const noexcept { return pending_.size(); }
    [[nodiscard]] std::size_t held_preprepares() const noexcept { return held_.size(); }
    [[nodiscard]] TimePoint last_preprepare_seen() const noexcept { return last_pp_seen_; }

    /// Age of the oldest request submitted but not yet ordered (drives the
    /// hosting protocol's timeout policies; zero when none waiting).
    [[nodiscard]] Duration oldest_waiting_age() const;

private:
    /// A PREPARE/COMMIT that arrived before its slot's PRE-PREPARE.
    struct HeldVote {
        NodeId from{};
        PhaseMsg::Phase phase = PhaseMsg::Phase::kPrepare;
        ViewId view{};
        Digest batch_digest{};
    };

    struct Slot {
        std::optional<PrePrepareMsg> pre_prepare;
        TimePoint pp_at{};  // when the PRE-PREPARE was accepted locally
        /// Votes for the accepted PRE-PREPARE's (view, digest) only.
        std::set<NodeId> prepares;
        std::set<NodeId> commits;
        /// Votes that arrived before the PRE-PREPARE (at most one per
        /// sender and phase), counted if they match it and dropped otherwise
        /// once it is accepted.
        std::vector<HeldVote> held_votes;
        bool sent_prepare = false;
        bool sent_commit = false;
        bool committed = false;
        bool delivered = false;
    };

    // Message handlers (run on the replica core after verification cost).
    void handle_pre_prepare(NodeId from, const PrePrepareMsg& m);
    void handle_phase(NodeId from, const PhaseMsg& m);
    void handle_checkpoint(NodeId from, const CheckpointMsg& m);
    void handle_view_change(NodeId from, const ViewChangeMsg& m);
    void handle_new_view(NodeId from, const NewViewMsg& m);

    // Primary-side batching.
    void enqueue_pending(const RequestRef& ref);
    void maybe_send_batch();
    void send_batch_now();
    void form_and_send_preprepare(std::vector<RequestRef> batch);

    // Progress.
    /// Builds, authenticates and broadcasts this replica's `phase` vote for
    /// the PRE-PREPARE accepted at `seq`.
    void broadcast_phase(const Slot& s, SeqNum seq, PhaseMsg::Phase phase);
    void try_prepare(SeqNum seq);
    void try_commit(SeqNum seq);
    void try_deliver();
    void accept_pre_prepare(const PrePrepareMsg& m);
    /// Holds `m` until `lacks` is submitted or ordered, or (none) until the
    /// view reaches m.view.  The same (view, seq, digest) is held once.
    void hold(const PrePrepareMsg& m, std::optional<RequestKey> lacks);
    /// Offers again the holds at the seqs where one lacks `key`.
    void wake_request(const RequestKey& key);
    /// Offers again every hold the view is no longer behind.
    void wake_view();
    void maybe_checkpoint();
    /// Builds, signs and broadcasts this replica's CHECKPOINT for `seq`.
    void broadcast_checkpoint(SeqNum seq);
    void advance_stable(SeqNum seq);
    /// Makes `seq` the stable checkpoint and garbage-collects below it.
    void adopt_stable(SeqNum seq);
    /// Adopts the stable checkpoint `seq` and skips delivery to it.
    void transfer_state(SeqNum seq);
    /// True when an accepted or held PRE-PREPARE covers every slot from
    /// next_deliver_ through `seq`.
    [[nodiscard]] bool holds_preprepares_through(SeqNum seq) const;

    // View change internals.
    void broadcast_view_change();
    void maybe_send_new_view();
    void install_view(ViewId v, const std::vector<PreparedProof>& reproposals);
    /// Offers an undelivered slot's requests for proposal again before a
    /// view change overwrites or voids the slot.
    void reoffer(const Slot& s);

    // Recovery and stall handling.
    void maybe_adopt_peer_view();
    void retry_stalled();
    void repair_peer(std::uint64_t peer_executed);

    [[nodiscard]] Digest batch_digest(const std::vector<RequestRef>& batch) const;
    [[nodiscard]] std::uint64_t batch_ref_bytes(std::size_t count) const noexcept {
        return count * RequestRef::kWireBytes;
    }
    [[nodiscard]] bool in_watermarks(SeqNum seq) const noexcept;
    // Quorum sizes, honoring the test-only overrides (checkpoint and
    // view-change quorums always use the real 2f+1).
    [[nodiscard]] std::uint32_t effective_prepare_quorum() const noexcept;
    [[nodiscard]] std::uint32_t effective_commit_quorum() const noexcept;
    [[nodiscard]] std::uint32_t effective_batch_max() const noexcept {
        if (behavior_.batch_cap > 0 && behavior_.batch_cap < config_.batch_max) {
            return behavior_.batch_cap;
        }
        return config_.batch_max;
    }
    [[nodiscard]] Slot& slot(SeqNum seq) { return slots_[raw(seq)]; }

    void broadcast(const net::MessagePtr& m, Duration per_dest_cost);
    /// Records a trace event of this replica, now.
    void trace(obs::EventType type, std::uint64_t a, std::uint64_t b, double x) {
        recorder_->event(
            {simulator_.now(), type, raw(config_.node), raw(config_.instance), a, b, x});
    }

    EngineConfig config_;
    sim::Simulator& simulator_;
    sim::CpuCore& core_;
    const crypto::KeyStore& keys_;
    const crypto::CostModel& costs_;
    EngineHost& host_;

    ViewId view_{};
    SeqNum next_seq_{SeqNum{1}};   // next seq this primary assigns
    SeqNum next_deliver_{SeqNum{1}};
    SeqNum last_stable_{SeqNum{0}};

    std::map<std::uint64_t, Slot> slots_;  // keyed by raw seq, ordered
    std::deque<RequestRef> pending_;
    det::set<RequestKey> pending_keys_;
    RequestKeySet ordered_keys_;
    std::deque<std::pair<RequestKey, TimePoint>> waiting_fifo_;
    std::multimap<std::uint64_t, PrePrepareMsg> held_;  // keyed by raw seq
    std::multimap<RequestKey, std::uint64_t> lacking_;  // request -> seq of a hold lacking it

    // Checkpoints: per seq, set of voters.
    std::map<std::uint64_t, std::set<NodeId>> checkpoint_votes_;
    SeqNum last_checkpoint_sent_{SeqNum{0}};
    // A stable checkpoint this replica has not reached but will deliver to
    // itself (0 = none), and when its delivery last made progress.
    SeqNum deferred_stable_{SeqNum{0}};
    TimePoint deferred_progress_at_{};

    // View change state: votes keyed by (target view, sender node).
    bool in_view_change_ = false;
    ViewId vc_target_{};
    TimePoint vc_started_at_{};
    std::map<std::pair<std::uint64_t, std::uint32_t>, ViewChangeMsg> vc_messages_;
    bool sent_new_view_ = false;

    // Views peers last reported via checkpoint piggybacks (recovery input).
    // Iterated by maybe_adopt_peer_view(): must stay deterministic.
    det::map<std::uint32_t, std::uint64_t> peer_views_;
    bool recovering_ = false;

    std::function<bool(NodeId)> primary_filter_;
    sim::OneShotTimer batch_timer_;
    sim::PeriodicTimer retry_timer_;
    bool pp_send_scheduled_ = false;
    TimePoint next_pp_allowed_{};
    TimePoint last_pp_seen_{};
    bool silent_replica_ = false;
    PrimaryBehavior behavior_;
    EngineTestFaults faults_;

    // Registry handles, resolved once in the constructor (profiler_ may be null).
    obs::Recorder* recorder_;
    obs::prof::Profiler* profiler_ = nullptr;
    obs::Counter* prof_preprepares_offered_ = nullptr;  // profiling only
    obs::Counter* ctr_preprepares_sent_ = nullptr;
    obs::Counter* ctr_preprepares_accepted_ = nullptr;
    obs::Counter* ctr_batches_delivered_ = nullptr;
    obs::Counter* ctr_requests_ordered_ = nullptr;
    obs::Counter* ctr_view_changes_ = nullptr;
    LatencyHistogram* hist_order_latency_ = nullptr;

    std::uint64_t flood_discards_ = 0;
    TimePoint last_repair_at_{};
};

}  // namespace rbft::bft
