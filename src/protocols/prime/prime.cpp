#include "protocols/prime/prime.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace rbft::protocols::prime {

PrimeNode::PrimeNode(PrimeConfig config, sim::Simulator& simulator, net::Fabric& network,
                     const crypto::KeyStore& keys, const crypto::CostModel& costs,
                     std::unique_ptr<core::Service> service)
    : config_(config),
      simulator_(simulator),
      network_(network),
      keys_(keys),
      costs_(costs),
      service_(std::move(service)),
      cpu_(1),
      exec_target_(config.n, 0),
      exec_done_(config.n, 0),
      certified_upto_(config.n, 0),
      recorder_(config.recorder) {
    assert(recorder_ != nullptr && "PrimeConfig::recorder is required");
    obs::MetricsRegistry& reg = recorder_->metrics();
    const std::uint32_t node = raw(config_.id);
    ctr_requests_received_ = reg.counter("prime.requests_received", node);
    ctr_requests_executed_ = reg.counter("prime.requests_executed", node);
    ctr_orders_sent_ = reg.counter("prime.orders_sent", node);
    ctr_orders_received_ = reg.counter("prime.orders_received", node);
    ctr_suspects_sent_ = reg.counter("prime.suspects_sent", node);
    ctr_rotations_ = reg.counter("prime.rotations", node);
}

void PrimeNode::start() {
    po_timer_.start(simulator_, config_.po_period, [this] { flush_po_buffer(); });
    order_timer_.start(simulator_, config_.check_period, [this] { order_tick(); });
    rtt_timer_.start(simulator_, config_.rtt_period, [this] { rtt_tick(); });
    check_timer_.start(simulator_, config_.check_period, [this] { check_tick(); });
    last_order_received_ = simulator_.now();
}

void PrimeNode::broadcast(const net::MessagePtr& m) {
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (NodeId{i} == config_.id) continue;
        cpu_.core(0).charge(simulator_, costs_.send_overhead);
        network_.send(net::Address::node(config_.id), net::Address::node(NodeId{i}), m);
    }
}

void PrimeNode::on_message(net::Address from, const net::MessagePtr& m) {
    if (faulty_) return;
    switch (m->type()) {
        case net::MsgType::kRequest:
            handle_request(std::static_pointer_cast<const bft::RequestMsg>(m));
            break;
        case net::MsgType::kPoRequest:
            if (from.kind == net::Address::Kind::kNode) {
                handle_po_request(NodeId{from.index},
                                  std::static_pointer_cast<const PoRequestMsg>(m));
            }
            break;
        case net::MsgType::kPoAck: {
            auto msg = std::static_pointer_cast<const PoAckMsg>(m);
            cpu_.core(0).submit(
                simulator_,
                costs_.recv_overhead + costs_.digest(m->wire_size()) + costs_.sig_verify_op,
                [this, from, msg] { handle_po_ack(NodeId{from.index}, *msg); });
            break;
        }
        case net::MsgType::kPrimeOrder: {
            auto msg = std::static_pointer_cast<const PrimeOrderMsg>(m);
            cpu_.core(0).submit(
                simulator_,
                costs_.recv_overhead + costs_.digest(m->wire_size()) + costs_.sig_verify_op,
                [this, from, msg] { handle_order(NodeId{from.index}, *msg); });
            break;
        }
        case net::MsgType::kRttProbe: {
            auto msg = std::static_pointer_cast<const RttProbeMsg>(m);
            cpu_.core(0).submit(simulator_, costs_.recv_overhead + costs_.mac_op,
                                [this, from, msg] { handle_probe(NodeId{from.index}, *msg); });
            break;
        }
        case net::MsgType::kRttEcho: {
            auto msg = std::static_pointer_cast<const RttEchoMsg>(m);
            cpu_.core(0).submit(simulator_, costs_.recv_overhead + costs_.mac_op,
                                [this, from, msg] { handle_echo(NodeId{from.index}, *msg); });
            break;
        }
        case net::MsgType::kPrimeSuspect: {
            auto msg = std::static_pointer_cast<const PrimeSuspectMsg>(m);
            cpu_.core(0).submit(
                simulator_,
                costs_.recv_overhead + costs_.digest(m->wire_size()) + costs_.sig_verify_op,
                [this, from, msg] { handle_suspect(NodeId{from.index}, *msg); });
            break;
        }
        case net::MsgType::kFlood:
            cpu_.core(0).charge(simulator_, costs_.recv_overhead +
                                                costs_.digest(m->wire_size()) + costs_.mac_op);
            break;
        case net::MsgType::kReply:
        case net::MsgType::kPropagate:
        case net::MsgType::kPrePrepare:
        case net::MsgType::kPrepare:
        case net::MsgType::kCommit:
        case net::MsgType::kCheckpoint:
        case net::MsgType::kViewChange:
        case net::MsgType::kNewView:
        case net::MsgType::kInstanceChange:
            break;  // not part of the Prime vocabulary
    }
}

// ---------------------------------------------------------------------------
// Client requests and PO dissemination.

void PrimeNode::handle_request(std::shared_ptr<const bft::RequestMsg> req) {
    if (cpu_.core(0).backlog(simulator_) > milliseconds(20.0)) return;  // bounded queue
    const Duration cost = costs_.recv_overhead + costs_.digest(req->payload.size()) +
                          costs_.sig_verify_op;
    cpu_.core(0).submit(simulator_, cost, [this, req] {
        if (req->corrupt_sig) return;
        const RequestKey key{req->client, req->rid};
        if (seen_requests_.contains(key) || executed_.contains(key)) return;
        seen_requests_.insert(key);
        ctr_requests_received_->add();
        if (recorder_->observing()) {
            recorder_->event({simulator_.now(), obs::EventType::kRequestReceived,
                              raw(config_.id), obs::kNoInstance, raw(req->client),
                              raw(req->rid), 0.0});
        }
        po_buffer_.push_back(req);
    });
}

void PrimeNode::flush_po_buffer() {
    if (faulty_ || po_buffer_.empty()) return;

    auto po = net::make_msg<PoRequestMsg>(config_.message_pool);
    po->id = PoId{config_.id, ++my_po_seq_};
    po->requests = std::move(po_buffer_);
    po_buffer_.clear();
    po->sig = keys_.sign(crypto::Principal::node(config_.id), BytesView{});

    std::uint64_t body = 0;
    for (const auto& r : po->requests) body += r->payload.size();
    cpu_.core(0).charge(simulator_, costs_.digest(body) + costs_.sig_sign_op);
    broadcast(po);

    PoState& state = po_store_[po->id];
    state.request = po;
    state.acks.insert(config_.id);  // origin vouches for its own PO
    maybe_certify(po->id);
}

void PrimeNode::handle_po_request(NodeId from, std::shared_ptr<const PoRequestMsg> msg) {
    // Verify origin signature over the whole body, plus each embedded
    // client signature not seen before (all signatures, §VI-B).
    std::uint64_t fresh_sigs = 0;
    for (const auto& r : msg->requests) {
        if (!seen_requests_.contains(RequestKey{r->client, r->rid})) ++fresh_sigs;
    }
    const Duration cost = costs_.recv_overhead + costs_.digest(msg->wire_size()) +
                          costs_.sig_verify_op +
                          costs_.sig_verify_op * static_cast<std::int64_t>(fresh_sigs);
    cpu_.core(0).submit(simulator_, cost, [this, from, msg] {
        if (msg->id.origin != from) return;
        for (const auto& r : msg->requests) {
            if (r->corrupt_sig) return;  // reject the whole PO
            seen_requests_.insert(RequestKey{r->client, r->rid});
        }
        PoState& state = po_store_[msg->id];
        if (!state.request) state.request = msg;
        state.acks.insert(config_.id);
        state.acks.insert(from);

        // Acknowledge to everyone (signed).
        auto ack = net::make_msg<PoAckMsg>(config_.message_pool);
        ack->id = msg->id;
        ack->acker = config_.id;
        ack->sig = keys_.sign(crypto::Principal::node(config_.id), BytesView{});
        cpu_.core(0).charge(simulator_, costs_.digest(ack->wire_size()) + costs_.sig_sign_op);
        broadcast(ack);

        maybe_certify(msg->id);
    });
}

void PrimeNode::handle_po_ack(NodeId from, const PoAckMsg& msg) {
    if (msg.acker != from) return;
    po_store_[msg.id].acks.insert(from);
    maybe_certify(msg.id);
}

void PrimeNode::maybe_certify(const PoId& id) {
    auto it = po_store_.find(id);
    if (it == po_store_.end()) return;
    PoState& state = it->second;
    if (state.certified || !state.request) return;
    if (state.acks.size() < commit_quorum(config_.f)) return;
    state.certified = true;

    // Advance the contiguous certified frontier for this origin.
    auto& upto = certified_upto_[raw(id.origin)];
    while (true) {
        auto next_it = po_store_.find(PoId{id.origin, upto + 1});
        if (next_it == po_store_.end() || !next_it->second.certified) break;
        ++upto;
    }
    try_execute();
}

// ---------------------------------------------------------------------------
// Ordering.

void PrimeNode::order_tick() {
    if (faulty_ || !is_primary()) return;
    const Duration gap =
        order_gap_override_.ns > 0 ? order_gap_override_ : config_.order_period;
    if (simulator_.now() - last_order_sent_ < gap) return;
    send_order();
}

void PrimeNode::send_order() {
    last_order_sent_ = simulator_.now();
    auto order = net::make_msg<PrimeOrderMsg>(config_.message_pool);
    order->primary = config_.id;
    order->order_seq = ++order_seq_sent_;
    order->coverage = last_coverage_sent_.empty()
                          ? std::vector<std::uint64_t>(config_.n, 0)
                          : last_coverage_sent_;

    // Extend coverage up to the certified frontier, capped in requests.
    std::uint64_t budget = config_.max_order_coverage;
    for (std::uint32_t o = 0; o < config_.n && budget > 0; ++o) {
        while (order->coverage[o] < certified_upto_[o] && budget > 0) {
            auto it = po_store_.find(PoId{NodeId{o}, order->coverage[o] + 1});
            const std::uint64_t size =
                (it != po_store_.end() && it->second.request)
                    ? it->second.request->requests.size()
                    : 1;
            if (size > budget) {
                budget = 0;
                break;
            }
            budget -= size;
            ++order->coverage[o];
        }
    }
    last_coverage_sent_ = order->coverage;

    order->sig = keys_.sign(crypto::Principal::node(config_.id), BytesView{});
    cpu_.core(0).charge(simulator_, costs_.digest(order->wire_size()) + costs_.sig_sign_op);
    ctr_orders_sent_->add();
    broadcast(order);

    // Apply locally.
    last_order_received_ = simulator_.now();
    for (std::uint32_t o = 0; o < config_.n; ++o) {
        exec_target_[o] = std::max(exec_target_[o], order->coverage[o]);
    }
    try_execute();
}

void PrimeNode::handle_order(NodeId from, const PrimeOrderMsg& msg) {
    if (from != current_primary() || msg.primary != from) return;
    if (msg.order_seq <= last_order_seq_) return;
    if (msg.coverage.size() != config_.n) return;
    last_order_seq_ = msg.order_seq;
    last_order_received_ = simulator_.now();
    ctr_orders_received_->add();
    for (std::uint32_t o = 0; o < config_.n; ++o) {
        exec_target_[o] = std::max(exec_target_[o], msg.coverage[o]);
    }
    try_execute();
}

void PrimeNode::try_execute() {
    for (std::uint32_t o = 0; o < config_.n; ++o) {
        while (exec_done_[o] < std::min(exec_target_[o], certified_upto_[o])) {
            auto it = po_store_.find(PoId{NodeId{o}, exec_done_[o] + 1});
            if (it == po_store_.end() || !it->second.request) return;
            execute_po(*it->second.request);
            ++exec_done_[o];
        }
    }
}

void PrimeNode::execute_po(const PoRequestMsg& po) {
    for (const auto& req : po.requests) {
        const RequestKey key{req->client, req->rid};
        if (!executed_.insert(key)) continue;
        const Duration cost = req->exec_cost + costs_.mac_op + costs_.send_overhead;
        cpu_.core(0).submit(simulator_, cost, [this, req] {
            bft::ReplyMsg reply;
            reply.client = req->client;
            reply.rid = req->rid;
            reply.node = config_.id;
            reply.result = service_->execute(req->client, req->payload);
            reply.mac = keys_.mac(crypto::Principal::node(config_.id),
                                  crypto::Principal::client(req->client),
                                  BytesView(reply.result.data(), reply.result.size()));
            network_.send(net::Address::node(config_.id), net::Address::client(req->client),
                          net::make_msg<bft::ReplyMsg>(config_.message_pool, reply));
            ctr_requests_executed_->add();
        });
    }
}

// ---------------------------------------------------------------------------
// RTT monitoring and primary rotation.

void PrimeNode::rtt_tick() {
    if (faulty_) return;
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (NodeId{i} == config_.id) continue;
        auto probe = net::make_msg<RttProbeMsg>(config_.message_pool);
        probe->sender = config_.id;
        probe->nonce = next_nonce_++;
        probe_sent_[probe->nonce] = simulator_.now();
        cpu_.core(0).charge(simulator_, costs_.mac_op + costs_.send_overhead);
        network_.send(net::Address::node(config_.id), net::Address::node(NodeId{i}), probe);
    }
}

void PrimeNode::handle_probe(NodeId from, const RttProbeMsg& msg) {
    // The echo is produced by the same (possibly busy) event loop — this is
    // precisely what the Fig. 1 attack inflates.
    auto echo = net::make_msg<RttEchoMsg>(config_.message_pool);
    echo->responder = config_.id;
    echo->nonce = msg.nonce;
    cpu_.core(0).charge(simulator_, costs_.mac_op + costs_.send_overhead);
    network_.send(net::Address::node(config_.id), net::Address::node(from), echo);
}

void PrimeNode::handle_echo(NodeId, const RttEchoMsg& msg) {
    auto it = probe_sent_.find(msg.nonce);
    if (it == probe_sent_.end()) return;
    const Duration sample = simulator_.now() - it->second;
    probe_sent_.erase(it);
    rtt_estimate_ = rtt_estimate_ * (1.0 - config_.rtt_alpha) + sample * config_.rtt_alpha;
}

void PrimeNode::check_tick() {
    if (faulty_ || is_primary() || suspected_current_) return;
    // The ordering loop and this check both run on the check-period grid,
    // so observed gaps carry up to two periods of quantization on top of
    // the true spacing; a correct primary must not be suspected for that.
    const Duration slack = config_.check_period * std::int64_t{2};
    if (simulator_.now() - last_order_received_ <= order_bound() + slack) return;

    suspected_current_ = true;
    ctr_suspects_sent_->add();
    if (Logger* lg = simulator_.logger(); lg && lg->enabled(LogLevel::kDebug)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "[%u] t=%.3f SUSPECT gap=%.1fms bound=%.1fms rtt=%.2fms",
                      raw(config_.id), simulator_.now().seconds(),
                      (simulator_.now() - last_order_received_).millis(),
                      order_bound().millis(), rtt_estimate_.millis());
        lg->log(LogLevel::kDebug, "prime", buf);
    }
    auto suspect = net::make_msg<PrimeSuspectMsg>(config_.message_pool);
    suspect->sender = config_.id;
    suspect->round = rotation_round_;
    suspect->sig = keys_.sign(crypto::Principal::node(config_.id), BytesView{});
    cpu_.core(0).charge(simulator_, costs_.digest(suspect->wire_size()) + costs_.sig_sign_op);
    broadcast(suspect);
    suspect_votes_[rotation_round_].insert(config_.id);
    if (suspect_votes_[rotation_round_].size() >= commit_quorum(config_.f)) rotate_primary();
}

void PrimeNode::handle_suspect(NodeId from, const PrimeSuspectMsg& msg) {
    if (msg.sender != from || msg.round < rotation_round_) return;
    suspect_votes_[msg.round].insert(from);
    if (msg.round == rotation_round_ &&
        suspect_votes_[rotation_round_].size() >= commit_quorum(config_.f)) {
        rotate_primary();
    }
}

void PrimeNode::rotate_primary() {
    suspect_votes_.erase(suspect_votes_.begin(),
                         suspect_votes_.upper_bound(rotation_round_));
    ++rotation_round_;
    ctr_rotations_->add();
    if (recorder_->observing()) {
        recorder_->event({simulator_.now(), obs::EventType::kViewInstalled, raw(config_.id),
                          obs::kNoInstance, rotation_round_, 0, 0.0});
    }
    suspected_current_ = false;
    last_order_received_ = simulator_.now();  // grace for the new primary
}

}  // namespace rbft::protocols::prime
