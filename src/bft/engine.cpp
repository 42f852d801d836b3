#include "bft/engine.hpp"

#include <algorithm>
#include <cassert>

#include "bft/execution.hpp"
#include "crypto/sha256.hpp"

namespace rbft::bft {

InstanceEngine::InstanceEngine(EngineConfig config, sim::Simulator& simulator, sim::CpuCore& core,
                               const crypto::KeyStore& keys, const crypto::CostModel& costs,
                               EngineHost& host)
    : config_(config),
      simulator_(simulator),
      core_(core),
      keys_(keys),
      costs_(costs),
      host_(host),
      recovering_(config.recovering),
      recorder_(config.recorder) {
    assert(recorder_ != nullptr && "EngineConfig::recorder is required");
    if (config_.retry_interval.ns > 0) {
        retry_timer_.start(simulator_, config_.retry_interval, [this] { retry_stalled(); });
    }
    profiler_ = recorder_->profiler();
    obs::MetricsRegistry& reg = recorder_->metrics();
    const std::uint32_t node = raw(config_.node);
    const std::uint32_t inst = raw(config_.instance);
    prof_preprepares_offered_ =
        profiler_ ? profiler_->counter("bft.preprepares_offered", node, inst) : nullptr;
    ctr_preprepares_sent_ = reg.counter("bft.preprepares_sent", node, inst);
    ctr_preprepares_accepted_ = reg.counter("bft.preprepares_accepted", node, inst);
    ctr_batches_delivered_ = reg.counter("bft.batches_delivered", node, inst);
    ctr_requests_ordered_ = reg.counter("bft.requests_ordered", node, inst);
    ctr_view_changes_ = reg.counter("bft.view_changes", node, inst);
    hist_order_latency_ = reg.histogram("bft.order_latency_s", node, inst);
}

Digest InstanceEngine::batch_digest(const std::vector<RequestRef>& batch) const {
    crypto::Sha256 hasher;
    for (const auto& ref : batch) {
        hasher.update(BytesView(ref.digest.bytes.data(), ref.digest.bytes.size()));
    }
    keys_.note_digest();
    return hasher.finish();
}

bool InstanceEngine::in_watermarks(SeqNum seq) const noexcept {
    return raw(seq) > raw(last_stable_) &&
           raw(seq) <= raw(last_stable_) + config_.watermark_window;
}

std::uint32_t InstanceEngine::effective_prepare_quorum() const noexcept {
    if (config_.test_faults.prepare_quorum_override > 0) {
        return config_.test_faults.prepare_quorum_override;
    }
    return prepare_quorum(config_.f);
}

std::uint32_t InstanceEngine::effective_commit_quorum() const noexcept {
    if (config_.test_faults.commit_quorum_override > 0) {
        return config_.test_faults.commit_quorum_override;
    }
    return commit_quorum(config_.f);
}

Duration InstanceEngine::oldest_waiting_age() const {
    for (const auto& [key, since] : waiting_fifo_) {
        if (!ordered_keys_.contains(key)) return simulator_.now() - since;
    }
    return Duration{};
}

void InstanceEngine::retire() {
    silent_replica_ = true;
    batch_timer_.disarm(simulator_);
    retry_timer_.stop(simulator_);
}

void InstanceEngine::broadcast(const net::MessagePtr& m, Duration per_dest_cost) {
    if (silent_replica_) return;  // retired/silenced replicas never transmit
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        const NodeId dest{i};
        if (dest == config_.node) continue;
        core_.charge(simulator_, per_dest_cost + costs_.send_overhead);
        host_.engine_send(config_.instance, dest, m);
    }
}

// ---------------------------------------------------------------------------
// Submission and batching.

void InstanceEngine::submit(const RequestRef& ref) {
    if (silent_replica_) return;
    if (ordered_keys_.contains(ref.key())) return;
    // A repeated key sits behind its first entry, which oldest_waiting_age
    // reads first.
    waiting_fifo_.emplace_back(ref.key(), simulator_.now());
    // Unfair-primary lever: admit this request into the pending queue late.
    const Duration delay = is_primary() && behavior_.per_request_delay
                               ? behavior_.per_request_delay(ref)
                               : Duration{};
    if (delay.ns > 0) {
        simulator_.schedule_after(delay, [this, ref] { enqueue_pending(ref); });
    } else {
        enqueue_pending(ref);
    }
    wake_request(ref.key());
}

void InstanceEngine::enqueue_pending(const RequestRef& ref) {
    if (ordered_keys_.contains(ref.key()) || pending_keys_.contains(ref.key())) return;
    pending_.push_back(ref);
    pending_keys_.insert(ref.key());
    maybe_send_batch();
}

void InstanceEngine::maybe_send_batch() {
    if (in_view_change_ || silent_replica_ || behavior_.silent) return;
    if (!is_primary()) return;
    if (config_.rotating_primary) {
        // Rotating mode proposes strictly sequentially: one live proposal.
        if (slots_.contains(raw(next_deliver_)) &&
            slots_[raw(next_deliver_)].pre_prepare.has_value()) {
            return;
        }
        next_seq_ = next_deliver_;
    }
    if (!in_watermarks(next_seq_)) return;

    // Drop already-ordered requests from the head of the queue.
    while (!pending_.empty() && ordered_keys_.contains(pending_.front().key())) {
        pending_keys_.erase(pending_.front().key());
        pending_.pop_front();
    }
    if (pending_.empty()) return;

    if (pending_.size() >= effective_batch_max()) {
        send_batch_now();
    } else if (!batch_timer_.armed()) {
        batch_timer_.arm(simulator_, config_.batch_delay, [this] { send_batch_now(); });
    }
}

void InstanceEngine::send_batch_now() {
    batch_timer_.disarm(simulator_);
    if (in_view_change_ || silent_replica_ || behavior_.silent || !is_primary()) return;
    if (pp_send_scheduled_) return;
    if (!in_watermarks(next_seq_)) return;

    const std::uint32_t batch_limit = effective_batch_max();
    std::vector<RequestRef> batch;
    batch.reserve(std::min<std::size_t>(pending_.size(), batch_limit));
    std::uint64_t batch_bytes = 0;
    while (!pending_.empty() && batch.size() < batch_limit) {
        RequestRef ref = pending_.front();
        if (config_.batch_max_bytes > 0 && !batch.empty() &&
            batch_bytes + ref.payload_bytes > config_.batch_max_bytes) {
            break;
        }
        pending_.pop_front();
        // A key missing from pending_keys_ is in flight in an accepted
        // PRE-PREPARE (or a duplicate entry): proposing it again would
        // order it twice.
        if (pending_keys_.erase(ref.key()) == 0 || ordered_keys_.contains(ref.key())) continue;
        batch_bytes += ref.payload_bytes;
        batch.push_back(std::move(ref));
    }
    if (batch.empty()) return;

    // Byzantine rate limiting / delaying happens here.
    TimePoint earliest = simulator_.now();
    if (next_pp_allowed_ > earliest) earliest = next_pp_allowed_;
    if (behavior_.preprepare_delay.ns > 0) {
        const TimePoint held = simulator_.now() + behavior_.preprepare_delay;
        if (held > earliest) earliest = held;
    }
    if (earliest > simulator_.now()) {
        pp_send_scheduled_ = true;
        simulator_.schedule_at(earliest, [this, batch = std::move(batch)]() mutable {
            pp_send_scheduled_ = false;
            form_and_send_preprepare(std::move(batch));
        });
    } else {
        form_and_send_preprepare(std::move(batch));
    }
}

void InstanceEngine::form_and_send_preprepare(std::vector<RequestRef> batch) {
    if (in_view_change_ || silent_replica_ || behavior_.silent || !is_primary()) {
        // Re-queue so a later primary can order these requests.
        for (auto& ref : batch) enqueue_pending(ref);
        return;
    }

    auto pp = net::make_msg<PrePrepareMsg>(config_.message_pool);
    pp->instance = config_.instance;
    pp->view = view_;
    pp->seq = next_seq_;
    next_seq_ = next(next_seq_);
    pp->batch = std::move(batch);
    pp->batch_digest = batch_digest(pp->batch);
    if (config_.order_full_requests) {
        for (const auto& ref : pp->batch) pp->embedded_payload_bytes += ref.payload_bytes;
    }
    pp->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.node),
                                          config_.n, pp->batch_digest);
    pp->corrupt_mac_mask = behavior_.corrupt_preprepare_mac_mask;

    // Generation cost: hash the batch (identifiers + any embedded payload)
    // once, then one MAC per receiver.
    core_.charge(simulator_, costs_.digest(batch_ref_bytes(pp->batch.size()) +
                                           pp->embedded_payload_bytes) +
                                 costs_.authenticator_ops(config_.n));
    ctr_preprepares_sent_->add();
    trace(obs::EventType::kPrePrepareSent, raw(pp->seq), raw(pp->view), pp->batch.size());
    if (behavior_.inter_batch_gap.ns > 0) {
        next_pp_allowed_ = simulator_.now() + behavior_.inter_batch_gap;
    }

    if (config_.test_faults.equivocate_mask != 0 && !pp->batch.empty()) {
        // Planted equivocation (test-only): masked peers receive a variant
        // PRE-PREPARE for the same (view, seq) whose batch has the first
        // request duplicated — same cleared requests, different content
        // fingerprint — while everyone else gets the original.
        auto variant = net::make_msg<PrePrepareMsg>(config_.message_pool, *pp);
        variant->batch.push_back(variant->batch.front());
        variant->batch_digest = batch_digest(variant->batch);
        if (config_.order_full_requests) {
            variant->embedded_payload_bytes += variant->batch.back().payload_bytes;
        }
        variant->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.node),
                                                   config_.n, variant->batch_digest);
        for (std::uint32_t i = 0; i < config_.n; ++i) {
            const NodeId dest{i};
            if (dest == config_.node) continue;
            core_.charge(simulator_, costs_.send_overhead);
            const bool masked = (config_.test_faults.equivocate_mask >> i) & 1ULL;
            host_.engine_send(config_.instance, dest, masked ? variant : pp);
        }
    } else {
        broadcast(pp, Duration{});
    }
    accept_pre_prepare(*pp);
    maybe_send_batch();  // more pending requests may already justify a batch
}

// ---------------------------------------------------------------------------
// Message handling.

void InstanceEngine::on_message(NodeId from, const net::MessagePtr& m) {
    if (silent_replica_) return;  // Byzantine-silent replica ignores traffic
    obs::prof::Scope zone(profiler_, "bft.on_message", raw(config_.node), raw(config_.instance));

    // Verification cost depends on message type; charged before logic runs.
    Duration cost = costs_.recv_overhead;
    switch (m->type()) {
        case net::MsgType::kPrePrepare: {
            const auto& pp = static_cast<const PrePrepareMsg&>(*m);
            cost += costs_.digest(batch_ref_bytes(pp.batch.size()) + pp.embedded_payload_bytes) +
                    costs_.mac_op;
            break;
        }
        case net::MsgType::kPrepare:
        case net::MsgType::kCommit:
        case net::MsgType::kCheckpoint:
            cost += costs_.digest(m->wire_size()) + costs_.mac_op;
            break;
        case net::MsgType::kViewChange:
        case net::MsgType::kNewView:
            cost += costs_.sig_verify_with_body(m->wire_size());
            break;
        case net::MsgType::kFlood:
            // Pay the attempted MAC check, then drop.
            core_.charge(simulator_, cost + costs_.digest(m->wire_size()) + costs_.mac_op);
            ++flood_discards_;
            return;
        case net::MsgType::kRequest:
        case net::MsgType::kReply:
        case net::MsgType::kPropagate:
        case net::MsgType::kInstanceChange:
        case net::MsgType::kPoRequest:
        case net::MsgType::kPoAck:
        case net::MsgType::kPrimeOrder:
        case net::MsgType::kRttProbe:
        case net::MsgType::kRttEcho:
        case net::MsgType::kPrimeSuspect:
            break;  // never routed to an instance engine; base cost only
    }

    core_.submit(simulator_, cost, [this, from, m] {
        switch (m->type()) {
            case net::MsgType::kPrePrepare: {
                const auto& pp = static_cast<const PrePrepareMsg&>(*m);
                if ((pp.corrupt_mac_mask >> raw(config_.node)) & 1) return;  // MAC check failed
                handle_pre_prepare(from, pp);
                break;
            }
            case net::MsgType::kPrepare:
            case net::MsgType::kCommit: {
                const auto& ph = static_cast<const PhaseMsg&>(*m);
                if ((ph.corrupt_mac_mask >> raw(config_.node)) & 1) return;
                handle_phase(from, ph);
                break;
            }
            case net::MsgType::kCheckpoint:
                handle_checkpoint(from, static_cast<const CheckpointMsg&>(*m));
                break;
            case net::MsgType::kViewChange:
                handle_view_change(from, static_cast<const ViewChangeMsg&>(*m));
                break;
            case net::MsgType::kNewView:
                handle_new_view(from, static_cast<const NewViewMsg&>(*m));
                break;
            case net::MsgType::kRequest:
            case net::MsgType::kReply:
            case net::MsgType::kPropagate:
            case net::MsgType::kInstanceChange:
            case net::MsgType::kPoRequest:
            case net::MsgType::kPoAck:
            case net::MsgType::kPrimeOrder:
            case net::MsgType::kRttProbe:
            case net::MsgType::kRttEcho:
            case net::MsgType::kPrimeSuspect:
            case net::MsgType::kFlood:
                break;  // not engine traffic (kFlood already discarded above)
        }
    });
}

void InstanceEngine::handle_pre_prepare(NodeId from, const PrePrepareMsg& m) {
    if (m.instance != config_.instance) return;
    if (prof_preprepares_offered_) prof_preprepares_offered_->add();
    last_pp_seen_ = simulator_.now();
    // In repair mode (stall retry enabled) peers relay stored PRE-PREPAREs
    // to lagging replicas.  The relayed message still carries the primary's
    // authenticator (signature semantics), and the keep-first rule below
    // still rejects equivocation, so accepting relays is sound.
    if (from != primary_of(m.view) && config_.retry_interval.ns <= 0) return;
    if (raw(m.view) > raw(view_)) {
        // Ahead of us (rotating-primary hand-off or a view we have not
        // installed yet): hold until we catch up.
        hold(m, std::nullopt);
        return;
    }
    if (m.view != view_ || in_view_change_) return;
    if (!in_watermarks(m.seq)) return;

    Slot& s = slot(m.seq);
    if (s.pre_prepare.has_value()) return;  // duplicate or equivocation: keep first

    // RBFT: prepare only once the node cleared the requests (f+1 PROPAGATEs).
    for (const auto& ref : m.batch) {
        if (!ordered_keys_.contains(ref.key()) && !host_.engine_request_cleared(ref)) {
            hold(m, ref.key());
            return;
        }
    }
    accept_pre_prepare(m);
}

void InstanceEngine::accept_pre_prepare(const PrePrepareMsg& m) {
    Slot& s = slot(m.seq);
    if (s.pre_prepare.has_value()) return;
    s.pre_prepare = m;
    s.pp_at = simulator_.now();
    for (const HeldVote& v : s.held_votes) {
        if (v.view != m.view || v.batch_digest != m.batch_digest) continue;
        (v.phase == PhaseMsg::Phase::kPrepare ? s.prepares : s.commits).insert(v.from);
    }
    s.held_votes = {};
    last_pp_seen_ = simulator_.now();
    ctr_preprepares_accepted_->add();
    trace(obs::EventType::kPrePrepareAccepted, raw(m.seq), raw(m.view), m.batch.size());

    for (const auto& ref : m.batch) {
        // In-flight: stop offering these in our own future batches.
        pending_keys_.erase(ref.key());
    }

    if (primary_of(m.view) != config_.node) {
        s.prepares.insert(config_.node);
        s.sent_prepare = true;
        broadcast_phase(s, m.seq, PhaseMsg::Phase::kPrepare);
    }
    try_prepare(m.seq);
}

void InstanceEngine::handle_phase(NodeId from, const PhaseMsg& m) {
    if (m.instance != config_.instance) return;
    if (!in_watermarks(m.seq)) return;
    // Once this replica has asked to leave its view, it stops agreeing in
    // it: a slot it committed now could be missing from the NEW-VIEW.
    if (in_view_change_ && raw(m.view) <= raw(view_)) return;
    Slot& s = slot(m.seq);
    const bool is_prepare = m.phase == PhaseMsg::Phase::kPrepare;
    if (!s.pre_prepare.has_value()) {
        // Which batch this vote backs is unknown until the PRE-PREPARE is
        // accepted: hold it (an equivocating primary's variant must not
        // count toward the batch this replica ends up preparing).  A
        // sender's newer vote replaces its older one, so a slot holds at
        // most one vote per (sender, phase).
        const HeldVote vote{from, m.phase, m.view, m.batch_digest};
        auto held = std::find_if(s.held_votes.begin(), s.held_votes.end(), [&](const HeldVote& v) {
            return v.from == from && v.phase == m.phase;
        });
        if (held == s.held_votes.end()) {
            s.held_votes.push_back(vote);
        } else {
            *held = vote;
        }
    } else if (m.view == s.pre_prepare->view && m.batch_digest == s.pre_prepare->batch_digest) {
        (is_prepare ? s.prepares : s.commits).insert(from);
    } else {
        return;
    }

    if (is_prepare) {
        try_prepare(m.seq);
    } else {
        try_commit(m.seq);
    }
}

void InstanceEngine::broadcast_phase(const Slot& s, SeqNum seq, PhaseMsg::Phase phase) {
    auto ph = net::make_msg<PhaseMsg>(config_.message_pool);
    ph->phase = phase;
    ph->instance = config_.instance;
    ph->view = s.pre_prepare->view;
    ph->seq = seq;
    ph->batch_digest = s.pre_prepare->batch_digest;
    ph->replica = config_.node;
    ph->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.node),
                                          config_.n, ph->batch_digest);
    core_.charge(simulator_,
                 costs_.digest(ph->wire_size()) + costs_.authenticator_ops(config_.n));
    broadcast(ph, Duration{});
}

void InstanceEngine::try_prepare(SeqNum seq) {
    Slot& s = slot(seq);
    if (!s.pre_prepare.has_value() || s.sent_commit) return;
    if (s.prepares.size() < effective_prepare_quorum()) return;

    s.sent_commit = true;
    s.commits.insert(config_.node);
    if (recorder_->observing()) {
        trace(obs::EventType::kPrepared, raw(seq), raw(s.pre_prepare->view), 0.0);
    }
    broadcast_phase(s, seq, PhaseMsg::Phase::kCommit);
    try_commit(seq);
}

void InstanceEngine::try_commit(SeqNum seq) {
    Slot& s = slot(seq);
    if (!s.sent_commit || s.committed) return;
    if (s.commits.size() < effective_commit_quorum()) return;
    s.committed = true;
    if (recorder_->observing()) {
        trace(obs::EventType::kCommitted, raw(seq),
              raw(s.pre_prepare ? s.pre_prepare->view : view_), 0.0);
    }
    try_deliver();
}

void InstanceEngine::try_deliver() {
    if (silent_replica_) return;  // a retired replica must not hand batches up
    const ViewId entry_view = view_;
    std::vector<RequestKey> woken;
    while (true) {
        auto it = slots_.find(raw(next_deliver_));
        if (it == slots_.end()) break;
        if (it->second.delivered) {
            // Re-agreed after a view change on behalf of laggards; already
            // delivered here.
            next_deliver_ = next(next_deliver_);
            if (config_.rotating_primary) view_ = next(view_);
            continue;
        }
        if (!it->second.committed) break;
        Slot& s = it->second;
        s.delivered = true;

        OrderedBatch batch;
        batch.instance = config_.instance;
        batch.view = s.pre_prepare->view;
        batch.seq = next_deliver_;
        batch.requests = s.pre_prepare->batch;
        for (const auto& ref : batch.requests) {
            ordered_keys_.insert(ref.key());
            if (lacking_.contains(ref.key())) woken.push_back(ref.key());
        }
        const double order_latency = (simulator_.now() - s.pp_at).seconds();
        ctr_batches_delivered_->add();
        ctr_requests_ordered_->add(batch.requests.size());
        hist_order_latency_->add(order_latency);
        trace(obs::EventType::kBatchDelivered, raw(batch.seq), batch.requests.size(),
              order_latency);
        if (recorder_->observing()) {
            // Content fingerprint of what was delivered at this sequence
            // number (the node's commit-log formula): the agreement oracle's
            // input.
            trace(obs::EventType::kBatchFingerprint, raw(batch.seq),
                  fingerprint_refs(batch.requests), raw(batch.view));
        }

        next_deliver_ = next(next_deliver_);
        if (config_.rotating_primary) view_ = next(view_);
        if (raw(deferred_stable_) > 0) deferred_progress_at_ = simulator_.now();
        host_.engine_ordered(batch);
        maybe_checkpoint();
    }
    // Drop satisfied waiting entries from the front of the FIFO.
    while (!waiting_fifo_.empty() && ordered_keys_.contains(waiting_fifo_.front().first)) {
        waiting_fifo_.pop_front();
    }
    if (view_ != entry_view) wake_view();
    for (const RequestKey& key : woken) wake_request(key);
    maybe_send_batch();
}

void InstanceEngine::hold(const PrePrepareMsg& m, std::optional<RequestKey> lacks) {
    if (raw(m.seq) <= raw(last_stable_)) return;
    const auto [lo, hi] = held_.equal_range(raw(m.seq));
    for (auto it = lo; it != hi; ++it) {
        if (it->second.view == m.view && it->second.batch_digest == m.batch_digest) return;
    }
    held_.emplace_hint(hi, raw(m.seq), m);
    if (lacks) lacking_.emplace(*lacks, raw(m.seq));
}

void InstanceEngine::wake_request(const RequestKey& key) {
    const auto [lo, hi] = lacking_.equal_range(key);
    std::vector<PrePrepareMsg> woken;
    for (auto w = lo; w != hi; ++w) {
        const auto [first, last] = held_.equal_range(w->second);
        for (auto it = first; it != last; ++it) woken.push_back(std::move(it->second));
        held_.erase(first, last);
    }
    lacking_.erase(lo, hi);
    for (const PrePrepareMsg& pp : woken) handle_pre_prepare(primary_of(pp.view), pp);
}

void InstanceEngine::wake_view() {
    std::vector<PrePrepareMsg> woken;
    for (auto it = held_.begin(); it != held_.end();) {
        if (raw(it->second.view) > raw(view_)) {
            ++it;
            continue;
        }
        woken.push_back(std::move(it->second));
        it = held_.erase(it);
    }
    for (const PrePrepareMsg& pp : woken) handle_pre_prepare(primary_of(pp.view), pp);
}

// ---------------------------------------------------------------------------
// Checkpointing.

void InstanceEngine::maybe_checkpoint() {
    const std::uint64_t executed = raw(next_deliver_) - 1;
    if (executed == 0 || executed % config_.checkpoint_interval != 0) return;
    if (executed <= raw(last_checkpoint_sent_)) return;
    last_checkpoint_sent_ = SeqNum{executed};
    checkpoint_votes_[executed].insert(config_.node);
    broadcast_checkpoint(SeqNum{executed});
    advance_stable(SeqNum{executed});
}

void InstanceEngine::broadcast_checkpoint(SeqNum seq) {
    auto cp = net::make_msg<CheckpointMsg>(config_.message_pool);
    cp->instance = config_.instance;
    cp->seq = seq;
    // Simulated state digest: hash of (instance, seq).  Engine-level state
    // is the ordering log; application state lives at the node.
    crypto::Sha256 hasher;
    net::WireWriter w(hasher);
    w.u32(raw(config_.instance));
    w.u64(raw(seq));
    cp->state_digest = hasher.finish();
    cp->replica = config_.node;
    cp->view = view_;
    cp->cpi = host_.host_cpi();
    cp->executed = raw(next_deliver_) - 1;
    cp->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.node),
                                          config_.n, cp->state_digest);
    core_.charge(simulator_, costs_.digest(cp->wire_size()) +
                                 costs_.authenticator_ops(config_.n));
    broadcast(cp, Duration{});
}

void InstanceEngine::handle_checkpoint(NodeId from, const CheckpointMsg& m) {
    if (m.instance != config_.instance) return;
    // Record the sender's view (monotonic per sender) before any early
    // return: a recovering replica learns the quorum's view from
    // checkpoints whose seq it already passed.
    auto [pv, inserted] = peer_views_.try_emplace(raw(from), raw(m.view));
    if (!inserted && raw(m.view) > pv->second) pv->second = raw(m.view);
    if (recovering_) {
        maybe_adopt_peer_view();
        // Resume proposing after the quorum's history: an amnesiac primary
        // re-using sequence numbers peers already delivered would be
        // rejected forever.  Peers report their delivered high-water mark on
        // every checkpoint; faults here are benign crashes, so any report is
        // trustworthy (a lying peer is outside this fault model).
        if (m.executed >= raw(next_seq_)) next_seq_ = SeqNum{m.executed + 1};
    }
    repair_peer(m.executed);
    if (raw(m.seq) <= raw(last_stable_)) return;
    checkpoint_votes_[raw(m.seq)].insert(from);
    advance_stable(m.seq);
}

void InstanceEngine::maybe_adopt_peer_view() {
    if (!recovering_ || in_view_change_) return;
    // Adopt the highest view that f+1 peers report having reached: at least
    // one correct replica is there, and the quorum has moved on without us.
    std::uint64_t best = raw(view_);
    for (const auto& [peer, pview] : peer_views_) {
        if (pview <= best) continue;
        std::size_t count = 0;
        for (const auto& [p2, v2] : peer_views_) {
            if (v2 >= pview) ++count;
        }
        if (count >= propagate_quorum(config_.f)) best = pview;
    }
    if (best > raw(view_)) install_view(ViewId{best}, {});
}

void InstanceEngine::advance_stable(SeqNum seq) {
    auto it = checkpoint_votes_.find(raw(seq));
    if (it == checkpoint_votes_.end()) return;
    if (it->second.size() < commit_quorum(config_.f)) return;
    if (raw(seq) <= raw(last_stable_)) return;
    if (raw(next_deliver_) <= raw(seq)) {
        // We fell behind the quorum's stable state.  A replica that holds
        // the PRE-PREPARE of every slot up to it delivers those slots itself
        // and adopts the checkpoint when it gets there (maybe_checkpoint);
        // anything else state-transfers (DESIGN.md §5, item 12).
        if (raw(seq) <= raw(deferred_stable_)) return;
        if (raw(deferred_stable_) == 0 && !recovering_ && !in_view_change_ &&
            holds_preprepares_through(seq)) {
            deferred_stable_ = seq;
            deferred_progress_at_ = simulator_.now();
            return;
        }
        transfer_state(seq);
        return;
    }
    adopt_stable(seq);
    maybe_send_batch();
}

void InstanceEngine::adopt_stable(SeqNum seq) {
    if (recorder_->observing()) {
        const auto it = checkpoint_votes_.find(raw(seq));
        trace(obs::EventType::kCheckpointStable, raw(seq),
              it == checkpoint_votes_.end() ? 0 : it->second.size(), 0.0);
    }
    last_stable_ = seq;
    if (raw(deferred_stable_) <= raw(seq)) deferred_stable_ = SeqNum{0};
    slots_.erase(slots_.begin(), slots_.upper_bound(raw(seq)));
    held_.erase(held_.begin(), held_.upper_bound(raw(seq)));
    // Otherwise an entry outlives its hold until its request wakes.
    std::erase_if(lacking_, [seq](const auto& w) { return w.second <= raw(seq); });
    checkpoint_votes_.erase(checkpoint_votes_.begin(),
                            checkpoint_votes_.upper_bound(raw(seq)));
}

void InstanceEngine::transfer_state(SeqNum seq) {
    // State transfer (PBFT): adopt the checkpoint and resume delivery after
    // it.  The slots in between are never delivered here.
    const SeqNum from = next_deliver_;
    const auto held = std::distance(held_.lower_bound(raw(from)), held_.upper_bound(raw(seq)));
    adopt_stable(seq);
    // Resolved here, not in the constructor: a run without a state transfer
    // exports no such counter, and its metrics stay as they were.
    recorder_->metrics()
        .counter("bft.state_transfers", raw(config_.node), raw(config_.instance))
        ->add();
    trace(obs::EventType::kStateTransfer, raw(from), raw(seq), held);
    next_deliver_ = SeqNum{raw(seq) + 1};
    if (raw(next_seq_) < raw(next_deliver_)) next_seq_ = next_deliver_;
    recovering_ = false;  // rejoined: quorum state adopted
    try_deliver();
    maybe_send_batch();
}

bool InstanceEngine::holds_preprepares_through(SeqNum seq) const {
    for (std::uint64_t s = raw(next_deliver_); s <= raw(seq); ++s) {
        const auto it = slots_.find(s);
        if (it != slots_.end() && it->second.pre_prepare.has_value()) continue;
        if (!held_.contains(s)) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Stall retry.

void InstanceEngine::retry_stalled() {
    if (silent_replica_ || behavior_.silent || in_view_change_) return;

    // A deferred checkpoint whose slots delivered nothing for a whole retry
    // period (votes lost to a fault): stop waiting and state-transfer.
    if (raw(deferred_stable_) > 0 &&
        (simulator_.now() - deferred_progress_at_).ns >= config_.retry_interval.ns) {
        transfer_state(deferred_stable_);
    }

    // Re-offer our latest stable checkpoint.  The original broadcasts
    // predate a recovering replica's restart, and a stalled cluster takes no
    // new checkpoints — without this periodic re-offer a crashed-and-
    // recovered replica has no state-transfer source and stays wedged.
    if (raw(last_stable_) > 0) broadcast_checkpoint(last_stable_);

    auto it = slots_.find(raw(next_deliver_));
    if (it == slots_.end() || !it->second.pre_prepare.has_value()) {
        // Nothing proposed for the next slot.  If we are the primary with
        // requests waiting longer than a retry period, the earlier proposal
        // attempt (or its quorum) was swallowed by a fault: re-offer.
        if (is_primary() && !pending_.empty() &&
            oldest_waiting_age().ns > config_.retry_interval.ns) {
            maybe_send_batch();
        }
        return;
    }

    // Re-broadcast our contributions to every stalled undelivered slot (not
    // just the next one: a healed fault can leave quorum holes anywhere in
    // the pipeline).  Receivers dedupe, so this only fills holes a crash,
    // partition or lossy link punched into the quorums.
    constexpr std::uint32_t kRetrySlots = 32;
    std::uint32_t scanned = 0;
    for (auto sit = slots_.lower_bound(raw(next_deliver_));
         sit != slots_.end() && scanned < kRetrySlots; ++sit, ++scanned) {
        Slot& s = sit->second;
        if (s.delivered || !s.pre_prepare.has_value()) continue;
        if (raw(s.pre_prepare->view) != raw(view_)) continue;
        if ((simulator_.now() - s.pp_at).ns <= config_.retry_interval.ns) continue;
        if (primary_of(view_) == config_.node) {
            auto pp = net::make_msg<PrePrepareMsg>(config_.message_pool, *s.pre_prepare);
            core_.charge(simulator_, costs_.authenticator_ops(config_.n));
            broadcast(pp, Duration{});
        }
        if (s.sent_prepare) broadcast_phase(s, SeqNum{sit->first}, PhaseMsg::Phase::kPrepare);
        if (s.sent_commit) broadcast_phase(s, SeqNum{sit->first}, PhaseMsg::Phase::kCommit);
    }
}

void InstanceEngine::repair_peer(std::uint64_t peer_executed) {
    // A peer's checkpoint reported it delivered less than we have: re-offer
    // the PRE-PREPAREs and our phase votes for the slots it is missing, so a
    // replica that lost messages to a crash or partition can finish them.
    // Slots at or below our stable checkpoint are pruned — the peer reaches
    // those via checkpoint state transfer instead.
    if (config_.retry_interval.ns <= 0) return;
    if (peer_executed + 1 >= raw(next_deliver_)) return;
    if ((simulator_.now() - last_repair_at_).ns < config_.retry_interval.ns) return;
    last_repair_at_ = simulator_.now();

    constexpr std::uint64_t kRepairSlots = 32;
    const std::uint64_t lo = std::max(peer_executed, raw(last_stable_)) + 1;
    const std::uint64_t hi = std::min(lo + kRepairSlots - 1, raw(next_deliver_) - 1);
    for (std::uint64_t seq = lo; seq <= hi; ++seq) {
        auto it = slots_.find(seq);
        if (it == slots_.end() || !it->second.pre_prepare.has_value()) continue;
        const Slot& s = it->second;
        auto pp = net::make_msg<PrePrepareMsg>(config_.message_pool, *s.pre_prepare);
        core_.charge(simulator_, costs_.authenticator_ops(config_.n));
        broadcast(pp, Duration{});
        if (s.sent_prepare) broadcast_phase(s, SeqNum{seq}, PhaseMsg::Phase::kPrepare);
        if (s.sent_commit) broadcast_phase(s, SeqNum{seq}, PhaseMsg::Phase::kCommit);
    }
}

// ---------------------------------------------------------------------------
// View changes.

void InstanceEngine::start_view_change(ViewId target) {
    if (silent_replica_) return;
    if (raw(target) <= raw(view_)) return;
    if (in_view_change_ && raw(target) <= raw(vc_target_)) return;
    in_view_change_ = true;
    vc_target_ = target;
    vc_started_at_ = simulator_.now();
    sent_new_view_ = false;
    if (recorder_->observing()) {
        trace(obs::EventType::kViewChangeStart, raw(target), 0, 0.0);
    }
    batch_timer_.disarm(simulator_);
    broadcast_view_change();
    maybe_send_new_view();
}

void InstanceEngine::broadcast_view_change() {
    auto vc = net::make_msg<ViewChangeMsg>(config_.message_pool);
    vc->instance = config_.instance;
    vc->new_view = vc_target_;
    vc->last_stable = last_stable_;
    vc->replica = config_.node;
    for (const auto& [seq, s] : slots_) {
        if (!s.pre_prepare.has_value() || !s.sent_commit) continue;
        PreparedProof proof;
        proof.seq = SeqNum{seq};
        proof.view = s.pre_prepare->view;
        proof.batch_digest = s.pre_prepare->batch_digest;
        proof.batch = s.pre_prepare->batch;
        vc->prepared.push_back(std::move(proof));
    }
    vc->sig = keys_.sign(crypto::Principal::node(config_.node), vc->signed_digest());
    core_.charge(simulator_, costs_.sign_with_body(vc->wire_size()));
    vc_messages_[{raw(vc_target_), raw(config_.node)}] = *vc;
    broadcast(vc, Duration{});
}

void InstanceEngine::handle_view_change(NodeId from, const ViewChangeMsg& m) {
    if (m.instance != config_.instance) return;
    if (raw(m.new_view) <= raw(view_)) return;
    // VIEW-CHANGE messages are signed (transferable evidence): check both
    // the claimed identity and the signature before counting the vote.
    if (m.replica != from || m.sig.signer != crypto::Principal::node(from)) return;
    if (!keys_.verify(m.sig, m.signed_digest())) return;
    vc_messages_[{raw(m.new_view), raw(from)}] = m;

    // Join a view change when f+1 replicas vouch for it (we cannot all be
    // wrong about needing one), as in PBFT/Aardvark.
    std::size_t votes = 0;
    for (const auto& [key, msg] : vc_messages_) {
        if (key.first == raw(m.new_view)) ++votes;
    }
    if (!in_view_change_ || raw(m.new_view) > raw(vc_target_)) {
        if (votes >= propagate_quorum(config_.f)) start_view_change(m.new_view);
    }
    maybe_send_new_view();
}

void InstanceEngine::maybe_send_new_view() {
    if (!in_view_change_ || sent_new_view_) return;
    if (primary_of(vc_target_) != config_.node) return;

    std::vector<const ViewChangeMsg*> quorum;
    for (const auto& [key, msg] : vc_messages_) {
        if (key.first == raw(vc_target_)) quorum.push_back(&msg);
    }
    if (quorum.size() < commit_quorum(config_.f)) return;
    sent_new_view_ = true;

    // Merge prepared proofs: per seq keep the proof from the highest view.
    SeqNum max_stable = last_stable_;
    std::map<std::uint64_t, PreparedProof> merged;
    for (const ViewChangeMsg* vc : quorum) {
        if (raw(vc->last_stable) > raw(max_stable)) max_stable = vc->last_stable;
        for (const auto& proof : vc->prepared) {
            auto it = merged.find(raw(proof.seq));
            if (it == merged.end() || raw(proof.view) > raw(it->second.view)) {
                merged[raw(proof.seq)] = proof;
            }
        }
    }

    auto nv = net::make_msg<NewViewMsg>(config_.message_pool);
    nv->instance = config_.instance;
    nv->view = vc_target_;
    nv->primary = config_.node;
    for (const ViewChangeMsg* vc : quorum) {
        // signed_digest() streams the same bytes sha256() used to hash, so
        // the digest values (and every downstream comparison) are unchanged.
        nv->view_change_digests.push_back(vc->signed_digest());
    }
    std::uint64_t max_seq = raw(max_stable);
    for (const auto& [seq, proof] : merged) max_seq = std::max(max_seq, seq);
    for (std::uint64_t seq = raw(max_stable) + 1; seq <= max_seq; ++seq) {
        auto it = merged.find(seq);
        if (it != merged.end()) {
            nv->reproposals.push_back(it->second);
        } else {
            PreparedProof filler;  // null request filling the gap (PBFT)
            filler.seq = SeqNum{seq};
            filler.view = vc_target_;
            filler.batch_digest = batch_digest({});
            nv->reproposals.push_back(std::move(filler));
        }
    }
    nv->sig = keys_.sign(crypto::Principal::node(config_.node), nv->signed_digest());
    core_.charge(simulator_, costs_.sign_with_body(nv->wire_size()));
    broadcast(nv, Duration{});
    install_view(vc_target_, nv->reproposals);
}

void InstanceEngine::handle_new_view(NodeId from, const NewViewMsg& m) {
    if (m.instance != config_.instance) return;
    if (from != primary_of(m.view)) return;
    if (raw(m.view) <= raw(view_)) return;
    if (m.primary != from || m.sig.signer != crypto::Principal::node(from)) return;
    if (!keys_.verify(m.sig, m.signed_digest())) return;
    install_view(m.view, m.reproposals);
}

void InstanceEngine::reoffer(const Slot& s) {
    if (!s.pre_prepare.has_value() || s.delivered) return;
    for (const auto& ref : s.pre_prepare->batch) {
        if (ordered_keys_.contains(ref.key()) || pending_keys_.contains(ref.key())) continue;
        pending_.push_back(ref);
        pending_keys_.insert(ref.key());
    }
}

void InstanceEngine::install_view(ViewId v, const std::vector<PreparedProof>& reproposals) {
    // The NEW-VIEW re-proposes nothing at or below the quorum's stable
    // checkpoint: a deferred one can no longer be reached by delivery.
    if (raw(deferred_stable_) > 0) transfer_state(deferred_stable_);
    view_ = v;
    in_view_change_ = false;
    recovering_ = false;  // any installed view means we are synced again
    ctr_view_changes_->add();
    trace(obs::EventType::kViewInstalled, raw(v), 0, 0.0);

    // Discard votes for views now in the past.
    for (auto it = vc_messages_.begin(); it != vc_messages_.end();) {
        it = (it->first.first <= raw(v)) ? vc_messages_.erase(it) : std::next(it);
    }

    std::uint64_t max_seq = raw(next_seq_) - 1;
    std::uint64_t reproposed_up_to = 0;
    for (const auto& proof : reproposals) {
        max_seq = std::max(max_seq, raw(proof.seq));
        reproposed_up_to = std::max(reproposed_up_to, raw(proof.seq));
        auto it = slots_.find(raw(proof.seq));
        // Reset the slot: quorum state from older views is void in view v.
        // Slots we already delivered are still re-agreed (we participate so
        // replicas that fell behind can commit them); the preserved
        // delivered flag prevents double delivery.
        Slot fresh;
        fresh.delivered = it != slots_.end() && it->second.delivered;
        if (it != slots_.end()) reoffer(it->second);
        PrePrepareMsg pp;
        pp.instance = config_.instance;
        pp.view = v;
        pp.seq = proof.seq;
        pp.batch = proof.batch;
        pp.batch_digest = proof.batch_digest;
        pp.auth = crypto::make_authenticator(keys_, crypto::Principal::node(primary_of(v)),
                                             config_.n, pp.batch_digest);
        slots_[raw(proof.seq)] = std::move(fresh);
        accept_pre_prepare(pp);
    }
    // Past the re-proposed range, an older view's PRE-PREPARE was never
    // prepared by a quorum, so view v voids it.  Left in place, the
    // keep-first rule would reject the new primary's proposal for that seq
    // and votes for it (which carry view v) could never count.
    for (auto it = slots_.upper_bound(reproposed_up_to); it != slots_.end(); ++it) {
        Slot& s = it->second;
        if (s.pre_prepare.has_value() && raw(s.pre_prepare->view) < raw(v) && !s.committed &&
            !s.delivered) {
            reoffer(s);
            s = Slot{};
        }
    }
    next_seq_ = SeqNum{std::max(max_seq + 1, raw(next_deliver_))};

    host_.engine_view_installed(config_.instance, v);
    wake_view();
    maybe_send_batch();
}

}  // namespace rbft::bft
