#include "rbft/node.hpp"

#include <bit>
#include <cassert>

namespace rbft::core {

namespace {
[[nodiscard]] std::uint64_t address_key(net::Address a) noexcept {
    return (static_cast<std::uint64_t>(a.kind) << 32) | a.index;
}

[[nodiscard]] std::uint64_t node_bit(NodeId id) noexcept { return std::uint64_t{1} << raw(id); }
}  // namespace

Node::Node(NodeConfig config, sim::Simulator& simulator, net::Fabric& network,
           const crypto::KeyStore& keys, const crypto::CostModel& costs,
           std::unique_ptr<Service> service)
    : config_(config),
      simulator_(simulator),
      network_(network),
      keys_(keys),
      costs_(costs),
      service_(std::move(service)),
      cpu_(kCores),
      recorder_(config.recorder) {
    assert(recorder_ != nullptr && "NodeConfig::recorder is required");
    assert(config_.n <= kMaxNodes && "RequestState::propagated_by is a 64-bit NodeId mask");
    const std::uint32_t instances = config_.instance_count();
    assert(instances < 64 && "RequestState::ordered_by is a 64-bit InstanceId mask");
    make_engines(/*recovering=*/false);
    ordered_counters_.resize(instances);

    profiler_ = recorder_->profiler();
    obs::MetricsRegistry& reg = recorder_->metrics();
    const std::uint32_t node = raw(config_.id);
    ctr_requests_received_ = reg.counter("rbft.requests_received", node);
    ctr_requests_verified_ = reg.counter("rbft.requests_verified", node);
    ctr_requests_invalid_mac_ = reg.counter("rbft.requests_invalid_mac", node);
    ctr_requests_invalid_sig_ = reg.counter("rbft.requests_invalid_sig", node);
    ctr_requests_executed_ = reg.counter("rbft.requests_executed", node);
    ctr_replies_resent_ = reg.counter("rbft.replies_resent", node);
    ctr_propagates_received_ = reg.counter("rbft.propagates_received", node);
    ctr_ic_voted_ = reg.counter("rbft.instance_changes_voted", node);
    ctr_ic_done_ = reg.counter("rbft.instance_changes_done", node);
    ctr_nic_closures_ = reg.counter("rbft.nic_closures", node);
    ctr_crashes_ = reg.counter("rbft.crashes", node);
    ctr_restarts_ = reg.counter("rbft.restarts", node);
    ctr_mac_ops_ = reg.counter("crypto.mac_ops", node);
    ctr_sig_verifies_ = reg.counter("crypto.sig_verifies", node);
    ctr_crypto_ns_ = reg.counter("crypto.charged_ns", node);
    monitor_kreq_series_.reserve(instances);
    for (std::uint32_t i = 0; i < instances; ++i) {
        monitor_kreq_series_.push_back(reg.series("monitor.kreq_s", node, i));
    }
}

void Node::make_engines(bool recovering) {
    const std::uint32_t instances = config_.instance_count();
    engines_.reserve(instances);
    for (std::uint32_t i = 0; i < instances; ++i) {
        bft::EngineConfig ec;
        ec.instance = InstanceId{i};
        ec.node = config_.id;
        ec.n = config_.n;
        ec.f = config_.f;
        ec.batch_max = config_.batch_max;
        ec.batch_delay = config_.batch_delay;
        ec.order_full_requests = config_.order_full_requests;
        ec.checkpoint_interval = config_.checkpoint_interval;
        ec.retry_interval = config_.engine_retry_interval;
        ec.recovering = recovering;
        ec.recorder = config_.recorder;
        ec.message_pool = config_.message_pool;
        engines_.push_back(std::make_unique<bft::InstanceEngine>(
            ec, simulator_, replica_core(InstanceId{i}), keys_, costs_, *this));
    }
}

StateSizes Node::state_sizes() const {
    StateSizes sizes;
    sizes.requests = requests_.size();
    for (const auto& [key, state] : requests_) {
        if (state.request) ++sizes.retained_bodies;
    }
    sizes.executed_tail = executed_.tail_size();
    for (const auto& engine : engines_) {
        sizes.ordered_tail.push_back(engine->ordered_tail());
        sizes.held_preprepares.push_back(engine->held_preprepares());
    }
    return sizes;
}

void Node::start() {
    monitor_timer_.start(simulator_, MonitoringConfig::kPeriod, [this] { monitoring_tick(); });
}

// ---------------------------------------------------------------------------
// Crash / restart lifecycle.

void Node::crash() {
    if (crashed_) return;
    crashed_ = true;
    ctr_crashes_->add();
    monitor_timer_.stop(simulator_);
    // Retire (do not destroy) the replicas: pending simulator and CPU
    // callbacks still reference them; retired replicas never act again.
    for (auto& engine : engines_) engine->retire();
    if (recorder_->observing()) {
        recorder_->event({simulator_.now(), obs::EventType::kNodeCrashed, raw(config_.id),
                          obs::kNoInstance, 0, 0, 0.0});
    }
}

void Node::restart() {
    if (!crashed_) return;
    for (auto& engine : engines_) retired_engines_.push_back(std::move(engine));
    engines_.clear();
    make_engines(/*recovering=*/true);

    // Volatile protocol state did not survive the crash.  The node rejoins
    // with empty tables and resynchronizes from its peers: sequence numbers
    // via checkpoint state transfer, views and cpi via checkpoint
    // piggybacks / instance-change quorums.  (Application state transfer is
    // not modeled; the service restarts empty, like the ordering log.)
    requests_.clear();
    executed_.clear();
    last_reply_.clear();
    blacklisted_clients_.clear();
    client_latency_.clear();
    invalid_counts_.clear();
    ic_votes_.clear();
    peer_cpi_.clear();
    cpi_ = 0;
    voted_current_cpi_ = false;
    suspicious_ = false;
    bad_window_streak_ = 0;
    last_instance_change_ = simulator_.now();
    for (auto& counter : ordered_counters_) (void)counter.take();
    // Extra grace: the node needs a few periods to resync before its
    // monitoring comparisons mean anything.
    grace_remaining_ = MonitoringConfig::kGraceTicks + 3;

    recovering_ = true;
    crashed_ = false;
    ctr_restarts_->add();
    monitor_timer_.start(simulator_, MonitoringConfig::kPeriod, [this] { monitoring_tick(); });
    if (recorder_->observing()) {
        recorder_->event({simulator_.now(), obs::EventType::kNodeRestarted, raw(config_.id),
                          obs::kNoInstance, 0, 0, 0.0});
    }
}

void Node::note_peer_cpi(NodeId from, std::uint64_t peer_cpi) {
    auto [it, inserted] = peer_cpi_.try_emplace(raw(from), peer_cpi);
    if (!inserted && peer_cpi > it->second) it->second = peer_cpi;
    if (peer_cpi_.size() < propagate_quorum(config_.f)) return;

    // f+1 peers reported: at least one is correct, so the highest cpi that
    // f+1 of them reached is a round the system actually entered.
    std::uint64_t best = cpi_;
    for (const auto& [peer, c] : peer_cpi_) {
        if (c <= best) continue;
        std::size_t count = 0;
        for (const auto& [peer2, c2] : peer_cpi_) {
            if (c2 >= c) ++count;
        }
        if (count >= propagate_quorum(config_.f)) best = c;
    }
    if (best > cpi_) {
        cpi_ = best;
        voted_current_cpi_ = false;
        ic_votes_.erase(ic_votes_.begin(), ic_votes_.lower_bound(cpi_));
        reset_monitoring_state();
    }
    recovering_ = false;  // quorum picture acquired, engines sync via views
}

// ---------------------------------------------------------------------------
// Message routing.

void Node::on_message(net::Address from, const net::MessagePtr& m) {
    if (faulty_) return;  // a Byzantine node's behaviour is driven by src/attacks
    if (crashed_) return;  // nobody home: the process is down
    obs::prof::Scope zone(profiler_, "rbft.on_message", raw(config_.id));

    switch (m->type()) {
        case net::MsgType::kRequest:
            verification_receive(from, std::static_pointer_cast<const bft::RequestMsg>(m));
            break;
        case net::MsgType::kPropagate:
            if (from.kind == net::Address::Kind::kNode) {
                propagation_receive(NodeId{from.index},
                                    std::static_pointer_cast<const PropagateMsg>(m));
            }
            break;
        case net::MsgType::kPrePrepare:
        case net::MsgType::kPrepare:
        case net::MsgType::kCommit:
        case net::MsgType::kCheckpoint:
        case net::MsgType::kViewChange:
        case net::MsgType::kNewView: {
            if (from.kind != net::Address::Kind::kNode) return;
            InstanceId instance{};
#pragma GCC diagnostic push
            // The outer dispatch admits only the ordering types listed here.
#pragma GCC diagnostic ignored "-Wswitch-enum"
            switch (m->type()) {
                case net::MsgType::kPrePrepare:
                    instance = static_cast<const bft::PrePrepareMsg&>(*m).instance;
                    break;
                case net::MsgType::kPrepare:
                case net::MsgType::kCommit:
                    instance = static_cast<const bft::PhaseMsg&>(*m).instance;
                    break;
                case net::MsgType::kCheckpoint: {
                    const auto& cp = static_cast<const bft::CheckpointMsg&>(*m);
                    instance = cp.instance;
                    // Recovery: checkpoints carry the sender's cpi; a node
                    // that lost its round counter catches up from f+1
                    // matching reports.
                    if (recovering_) note_peer_cpi(NodeId{from.index}, cp.cpi);
                    break;
                }
                case net::MsgType::kViewChange:
                    instance = static_cast<const bft::ViewChangeMsg&>(*m).instance;
                    break;
                case net::MsgType::kNewView:
                    instance = static_cast<const bft::NewViewMsg&>(*m).instance;
                    break;
                default:
                    return;  // unreachable: restricted by the outer dispatch
            }
#pragma GCC diagnostic pop
            if (raw(instance) >= engines_.size()) return;
            engines_[raw(instance)]->on_message(NodeId{from.index}, m);
            break;
        }
        case net::MsgType::kInstanceChange: {
            if (from.kind != net::Address::Kind::kNode) return;
            auto ic = std::static_pointer_cast<const InstanceChangeMsg>(m);
            cpu_.core(kDispatchCore)
                .submit(simulator_, costs_.recv_overhead + costs_.digest(m->wire_size()) + costs_.mac_op,
                        [this, from, ic] { handle_instance_change(NodeId{from.index}, *ic); });
            break;
        }
        case net::MsgType::kFlood: {
            const auto& flood = static_cast<const net::FloodMsg&>(*m);
            const Duration cost =
                costs_.recv_overhead + costs_.digest(flood.wire_size()) + costs_.mac_op;
            if (flood.target() == net::FloodMsg::Target::kPropagation) {
                cpu_.core(kPropagationCore).charge(simulator_, cost);
            } else if (raw(flood.instance()) < engines_.size()) {
                replica_core(flood.instance()).charge(simulator_, cost);
            }
            count_invalid(from);
            break;
        }
        case net::MsgType::kReply:
        case net::MsgType::kPoRequest:
        case net::MsgType::kPoAck:
        case net::MsgType::kPrimeOrder:
        case net::MsgType::kRttProbe:
        case net::MsgType::kRttEcho:
        case net::MsgType::kPrimeSuspect:
            break;  // not addressed to an RBFT node
    }
}

// ---------------------------------------------------------------------------
// Step 1: Verification module.

void Node::verification_receive(net::Address from,
                                std::shared_ptr<const bft::RequestMsg> req) {
    if (blacklisted_clients_.contains(req->client)) return;
    ctr_requests_received_->add();
    if (recorder_->observing()) {
        recorder_->event({simulator_.now(), obs::EventType::kRequestReceived, raw(config_.id),
                          obs::kNoInstance, raw(req->client), raw(req->rid), 0.0});
    }

    // Retransmission of the last executed request: verify and resend the
    // cached reply (paper §IV-B step 1).
    if (auto it = last_reply_.find(req->client);
        it != last_reply_.end() && it->second.first == req->rid) {
        const Duration cost =
            costs_.recv_overhead + costs_.digest(req->payload.size()) + costs_.mac_op;
        cpu_.core(kVerificationCore).submit(simulator_, cost, [this, req] {
            if ((req->corrupt_mac_mask >> raw(config_.id)) & 1) return;
            auto again = last_reply_.find(req->client);
            if (again == last_reply_.end() || again->second.first != req->rid) return;
            ctr_replies_resent_->add();
            cpu_.core(kExecutionCore).charge(simulator_, costs_.send_overhead);
            send_reply(req->client, again->second.second);
        });
        return;
    }

    // Cheap dedup before any crypto: a request already adopted (or being
    // verified) via either path, or retired, is dropped without re-hashing
    // its body.
    const RequestKey key{req->client, req->rid};
    const auto found = requests_.find(key);
    const bool live = found != requests_.end();
    if (live ? (found->second.adopted || found->second.verifying) : executed_.contains(key)) {
        cpu_.core(kVerificationCore).charge(simulator_, costs_.recv_overhead);
        // Repair mode: a retransmission of an adopted-but-unexecuted request
        // is re-offered with a fresh PROPAGATE.  A replica that lost its
        // volatile state in a crash cannot assemble a propagate quorum from
        // the original PROPAGATEs, which predate its restart; client backoff
        // rate-limits the re-offers.
        if (live && config_.engine_retry_interval.ns > 0 && found->second.adopted &&
            found->second.self_propagated && !executed_.contains(key)) {
            const auto stored = found->second.request;
            cpu_.core(kVerificationCore)
                .submit(simulator_, costs_.mac_op, [this, req, stored] {
                    if ((req->corrupt_mac_mask >> raw(config_.id)) & 1) return;
                    cpu_.core(kPropagationCore)
                        .submit(simulator_, Duration{}, [this, stored] {
                            propagation_self(stored, /*re_offer=*/true);
                        });
                });
        }
        return;
    }
    if (cpu_.core(kVerificationCore).backlog(simulator_) > milliseconds(50.0)) {
        return;  // bounded client queue: shed under overload
    }
    requests_[key].verifying = true;

    // MAC authenticator check: hash the body once, check our entry.
    const Duration mac_cost =
        costs_.recv_overhead + costs_.digest(req->payload.size()) + costs_.mac_op;
    ctr_mac_ops_->add();
    ctr_crypto_ns_->add(static_cast<std::uint64_t>(mac_cost.ns));
    cpu_.core(kVerificationCore).submit(simulator_, mac_cost, [this, from, req] {
        RequestState& st = requests_[RequestKey{req->client, req->rid}];
        st.digest_computed = true;
        if ((req->corrupt_mac_mask >> raw(config_.id)) & 1) {
            ctr_requests_invalid_mac_->add();
            st.verifying = false;
            count_invalid(from);
            return;
        }
        // Signature check (body digest already computed above).
        ctr_sig_verifies_->add();
        ctr_crypto_ns_->add(static_cast<std::uint64_t>(costs_.sig_verify_op.ns));
        if (recorder_->observing()) {
            recorder_->event({simulator_.now(), obs::EventType::kCryptoCharge, raw(config_.id),
                              obs::kNoInstance, 1, 0, costs_.sig_verify_op.seconds()});
        }
        cpu_.core(kVerificationCore)
            .submit(simulator_, costs_.sig_verify_op, [this, req] {
                if (req->corrupt_sig) {
                    ctr_requests_invalid_sig_->add();
                    blacklisted_clients_.insert(req->client);
                    return;
                }
                ctr_requests_verified_->add();

                // Already executed?  Resend the cached reply (§IV-B step 1).
                if (auto it = last_reply_.find(req->client);
                    it != last_reply_.end() && it->second.first == req->rid) {
                    ctr_replies_resent_->add();
                    cpu_.core(kExecutionCore).charge(simulator_, costs_.send_overhead);
                    send_reply(req->client, it->second.second);
                    return;
                }
                if (executed_.contains(RequestKey{req->client, req->rid})) return;

                // Hand over to the Propagation module.
                cpu_.core(kPropagationCore)
                    .submit(simulator_, Duration{},
                            [this, req] { propagation_self(req); });
            });
    });
}

// ---------------------------------------------------------------------------
// Step 2: Propagation module.

void Node::propagation_self(const std::shared_ptr<const bft::RequestMsg>& req, bool re_offer) {
    const RequestKey key{req->client, req->rid};
    if (RequestState* state = live_entry(key)) {
        if (state->self_propagated && !re_offer) return;
        state->self_propagated = true;
        state->propagated_by |= node_bit(config_.id);
        if (!state->adopted) {
            state->adopted = true;
            state->request = req;
        }
    } else if (!re_offer) {
        return;
    }
    // A retired request still gets a repair-mode re-offer that was queued
    // before it finished: the re-offer carries its own copy of the body.

    auto prop = net::make_msg<PropagateMsg>(config_.message_pool);
    prop->request = req;
    prop->sender = config_.id;
    prop->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.id),
                                            config_.n, req->digest);

    // Generation: one MAC per receiver over the (cached) request digest,
    // plus per-destination send handling.
    cpu_.core(kPropagationCore)
        .charge(simulator_, costs_.authenticator_ops(config_.n) +
                                costs_.send_overhead * static_cast<std::int64_t>(config_.n - 1));
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (NodeId{i} == config_.id) continue;
        network_.send(net::Address::node(config_.id), net::Address::node(NodeId{i}), prop);
    }
    maybe_clear(key);
}

void Node::propagation_receive(NodeId from, std::shared_ptr<const PropagateMsg> msg) {
    ctr_propagates_received_->add();
    const Duration mac_cost = costs_.recv_overhead + costs_.mac_op;
    cpu_.core(kPropagationCore).submit(simulator_, mac_cost, [this, from, msg] {
        if ((msg->corrupt_mac_mask >> raw(config_.id)) & 1) {
            count_invalid(net::Address::node(from));
            return;
        }
        const auto& req = msg->request;
        if (!req || blacklisted_clients_.contains(req->client)) return;
        const RequestKey key{req->client, req->rid};
        RequestState* entry = live_entry(key);
        if (!entry) return;  // retired: a late PROPAGATE changes nothing
        RequestState& state = *entry;
        // The sender vouching for the request counts regardless of whether
        // we have finished verifying the body ourselves.
        state.propagated_by |= node_bit(from);

        if (!state.adopted) {
            if (state.verifying) return;  // verification already queued
            state.verifying = true;
            // First sight of this request: the Verification module checks
            // the embedded client signature before the node adopts it
            // (§IV-B step 2) — on its own core, so a node whose clients
            // are unverifiable (worst-attack-1) doesn't stall propagation.
            // A body hash already computed on this node (even for a failed
            // MAC check) is reused.
            const Duration hash_cost =
                state.digest_computed ? Duration{} : costs_.digest(req->payload.size());
            state.digest_computed = true;
            cpu_.core(kVerificationCore)
                .submit(simulator_, hash_cost + costs_.sig_verify_op,
                        [this, req, key] {
                            if (req->corrupt_sig) {
                                blacklisted_clients_.insert(req->client);
                                return;
                            }
                            // propagation_self adopts the body.
                            if (!requests_[key].self_propagated) propagation_self(req);
                            maybe_clear(key);
                        });
            return;
        }
        if (!state.self_propagated) propagation_self(req);
        maybe_clear(key);
    });
}

Node::RequestState* Node::live_entry(const RequestKey& key) {
    const auto it = requests_.lower_bound(key);
    if (it != requests_.end() && it->first == key) return &it->second;
    if (executed_.contains(key)) return nullptr;
    return &requests_.emplace_hint(it, key, RequestState{})->second;
}

void Node::maybe_clear(const RequestKey& key) {
    const auto it = requests_.find(key);
    if (it == requests_.end()) return;
    RequestState& state = it->second;
    if (state.cleared || !state.adopted) return;
    if (std::popcount(state.propagated_by) < static_cast<int>(propagate_quorum(config_.f))) {
        return;
    }
    state.cleared = true;
    cpu_.core(kDispatchCore).submit(simulator_, microseconds(0.5), [this, key] { dispatch(key); });
}

// ---------------------------------------------------------------------------
// Step 3: Dispatch module.

void Node::dispatch(const RequestKey& key) {
    const auto it = requests_.find(key);
    if (it == requests_.end()) return;
    RequestState& state = it->second;
    if (state.dispatched || !state.adopted) return;
    state.dispatched = true;
    state.dispatch_time = simulator_.now();
    if (recorder_->observing()) {
        recorder_->event({simulator_.now(), obs::EventType::kRequestDispatched, raw(config_.id),
                          obs::kNoInstance, raw(key.client), raw(key.rid), 0.0});
    }

    bft::RequestRef ref;
    ref.client = state.request->client;
    ref.rid = state.request->rid;
    ref.digest = state.request->digest;
    ref.payload_bytes = static_cast<std::uint32_t>(state.request->payload.size());
    // submit() can deliver synchronously (a held PRE-PREPARE was waiting
    // for exactly this clearance), and the delivery may retire the entry:
    // `state` must not be touched past this point.
    for (auto& engine : engines_) engine->submit(ref);
    release_finished(key);
}

void Node::release_finished(const RequestKey& key) {
    const auto it = requests_.find(key);
    if (it == requests_.end() || !it->second.dispatched || !executed_.contains(key)) return;
    const std::uint64_t every_instance = (std::uint64_t{1} << engines_.size()) - 1;
    if (it->second.ordered_by == every_instance) {
        requests_.erase(it);
    } else {
        it->second.request.reset();
    }
}

bool Node::engine_request_cleared(const bft::RequestRef& ref) {
    const auto it = requests_.find(ref.key());
    return it != requests_.end() ? it->second.cleared : executed_.contains(ref.key());
}

void Node::engine_send(InstanceId, NodeId dest, net::MessagePtr m) {
    if (crashed_) return;  // a stale replica callback must not leak output
    network_.send(net::Address::node(config_.id), net::Address::node(dest), std::move(m));
}

void Node::engine_view_installed(InstanceId, ViewId) {}

// ---------------------------------------------------------------------------
// Steps 5-6: ordered batches, execution, replies.

void Node::engine_ordered(const bft::OrderedBatch& batch) {
    if (crashed_) return;
    const std::uint32_t idx = raw(batch.instance);
    ordered_counters_[idx].add(batch.requests.size());

    // Master batches are fingerprinted into the safety log (kept across
    // restarts — a recovered node's log simply has a hole where state
    // transfer skipped delivery).
    if (batch.instance == master_instance()) {
        commit_log_.emplace_back(raw(batch.seq), bft::fingerprint_refs(batch.requests));
    }

    const std::uint64_t instance_bit = std::uint64_t{1} << idx;
    for (const auto& ref : batch.requests) {
        // Only an instance's first delivery of a request is a latency sample:
        // the re-deliveries that follow an instance change carry stale
        // dispatch times.  A retired request (no entry) is never sampled.
        auto it = requests_.find(ref.key());
        bool first = false;
        if (it != requests_.end()) {
            first = (it->second.ordered_by & instance_bit) == 0;
            it->second.ordered_by |= instance_bit;
        }
        if (first && it->second.dispatched) {
            const Duration latency = simulator_.now() - it->second.dispatch_time;
            auto& stats = client_latency_[ref.client];
            if (stats.sum.size() < engines_.size()) {
                stats.sum.resize(engines_.size(), 0.0);
                stats.count.resize(engines_.size(), 0);
            }
            stats.sum[idx] += latency.seconds();
            stats.count[idx] += 1;
            if (batch.instance == master_instance()) {
                // Backlog re-ordered right after an instance change carries
                // stale dispatch times; only judge the new primary on
                // requests dispatched under its reign.
                if (it->second.dispatch_time > last_instance_change_) {
                    latency_check(batch.instance, ref, latency);
                }
            }
        }
        if (batch.instance == master_instance()) execute(ref);
        release_finished(ref.key());
    }
}

void Node::execute(const bft::RequestRef& ref) {
    auto it = requests_.find(ref.key());
    if (it == requests_.end() || !it->second.adopted) return;
    if (it->second.executed || executed_.contains(ref.key())) return;
    it->second.executed = true;
    const auto req = it->second.request;

    const Duration cost = req->exec_cost + costs_.mac_op + costs_.send_overhead;
    cpu_.core(kExecutionCore).submit(simulator_, cost, [this, req] {
        const RequestKey key{req->client, req->rid};
        // A restart since execute() wiped the entry, and this execution with
        // it: executed_ must gain no key that has no entry (see requests_).
        if (!requests_.contains(key) || !executed_.insert(key)) return;
        release_finished(key);
        ctr_requests_executed_->add();
        if (recorder_->observing()) {
            recorder_->event({simulator_.now(), obs::EventType::kRequestExecuted, raw(config_.id),
                              obs::kNoInstance, raw(key.client), raw(key.rid), 0.0});
        }

        bft::ReplyMsg reply;
        reply.client = req->client;
        reply.rid = req->rid;
        reply.node = config_.id;
        reply.result = service_->execute(req->client, req->payload);
        reply.mac = keys_.mac(crypto::Principal::node(config_.id),
                              crypto::Principal::client(req->client),
                              BytesView(reply.result.data(), reply.result.size()));
        last_reply_[req->client] = {req->rid, reply};
        send_reply(req->client, reply);
    });
}

void Node::send_reply(ClientId client, const bft::ReplyMsg& reply) {
    network_.send(net::Address::node(config_.id), net::Address::client(client),
                  net::make_msg<bft::ReplyMsg>(config_.message_pool, reply));
}

// ---------------------------------------------------------------------------
// Monitoring (§IV-C).

void Node::monitoring_tick() {
    if (faulty_ || !monitoring_enabled_) return;
    invalid_counts_.clear();

    const double period_s = MonitoringConfig::kPeriod.seconds();
    std::vector<std::uint64_t> counts(engines_.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        counts[i] = ordered_counters_[i].take();
        total += counts[i];
        const double kreq_s = static_cast<double>(counts[i]) / period_s / 1000.0;
        monitor_kreq_series_[i]->add(simulator_.now().seconds(), kreq_s);
    }

    if (grace_remaining_ > 0) {
        --grace_remaining_;
        return;
    }
    if (total < MonitoringConfig::kMinWindowRequests) {
        suspicious_ = false;
        return;
    }

    const double master_tps = static_cast<double>(counts[0]);
    double backup_sum = 0.0;
    for (std::size_t i = 1; i < counts.size(); ++i) backup_sum += static_cast<double>(counts[i]);
    const double backup_mean = backup_sum / static_cast<double>(counts.size() - 1);

    if (backup_mean <= 0.0) {
        // No backup progress: either system idle (handled above) or the
        // backups are under attack; nothing to compare against.
        if (recorder_->observing()) {
            recorder_->event({simulator_.now(), obs::EventType::kMonitorVerdict,
                              raw(config_.id), obs::kNoInstance, total,
                              obs::kVerdictNotJudged, 0.0});
        }
        suspicious_ = false;
        return;
    }

    const double ratio = master_tps / backup_mean;
    const bool below_delta = ratio < config_.monitoring.delta;
    if (recorder_->observing()) {
        // Monitoring verdict: the observed master/backup throughput ratio
        // judged against Δ — the heart of §IV-C, recorded every period.
        const std::uint64_t verdict =
            below_delta ? (bad_window_streak_ + 1 >= MonitoringConfig::kConsecutiveBadWindows
                               ? obs::kVerdictVoted
                               : obs::kVerdictBelowDelta)
                        : obs::kVerdictOk;
        recorder_->event({simulator_.now(), obs::EventType::kMonitorVerdict, raw(config_.id),
                          obs::kNoInstance, total, verdict, ratio});
    }
    if (below_delta) {
        ++bad_window_streak_;
        if (bad_window_streak_ >= MonitoringConfig::kConsecutiveBadWindows) {
            suspicious_ = true;
            vote_instance_change(IcReason::kThroughput);
        }
    } else {
        bad_window_streak_ = 0;
        suspicious_ = false;
    }
}

void Node::latency_check(InstanceId, const bft::RequestRef& ref, Duration latency) {
    const MonitoringConfig& mc = config_.monitoring;
    if (latency > mc.lambda) {
        vote_instance_change(IcReason::kLambda);
        return;
    }
    // Ω: master mean latency for this client vs the backup instances' mean.
    const auto it = client_latency_.find(ref.client);
    if (it == client_latency_.end()) return;
    const ClientLatencyStats& stats = it->second;
    if (stats.count.empty() || stats.count[0] == 0) return;
    const double master_mean = stats.sum[0] / static_cast<double>(stats.count[0]);
    double backup_sum = 0.0;
    std::uint64_t backup_count = 0;
    for (std::size_t i = 1; i < stats.count.size(); ++i) {
        backup_sum += stats.sum[i];
        backup_count += stats.count[i];
    }
    if (backup_count == 0) return;
    const double backup_mean = backup_sum / static_cast<double>(backup_count);
    if (master_mean - backup_mean > mc.omega.seconds()) {
        vote_instance_change(IcReason::kOmega);
    }
}

// ---------------------------------------------------------------------------
// Instance change (§IV-D).

void Node::vote_instance_change(IcReason reason) {
    if (voted_current_cpi_ || !monitoring_enabled_) return;
    voted_current_cpi_ = true;
    ctr_ic_voted_->add();
    recorder_->event({simulator_.now(), obs::EventType::kInstanceChangeVote, raw(config_.id),
                      obs::kNoInstance, cpi_, static_cast<std::uint64_t>(reason), 0.0});

    auto ic = net::make_msg<InstanceChangeMsg>(config_.message_pool);
    ic->cpi = cpi_;
    ic->sender = config_.id;
    // The MAC covers the 8-byte LE encoding of cpi; encode on the stack
    // instead of spinning up a heap-backed wire buffer for it.
    std::uint8_t cpi_le[8];
    for (std::size_t i = 0; i < 8; ++i) cpi_le[i] = static_cast<std::uint8_t>(cpi_ >> (i * 8));
    ic->auth = crypto::make_authenticator(keys_, crypto::Principal::node(config_.id),
                                          config_.n, BytesView(cpi_le, sizeof(cpi_le)));
    cpu_.core(kDispatchCore)
        .charge(simulator_, costs_.authenticator_ops(config_.n) +
                                costs_.send_overhead * static_cast<std::int64_t>(config_.n - 1));
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (NodeId{i} == config_.id) continue;
        network_.send(net::Address::node(config_.id), net::Address::node(NodeId{i}), ic);
    }
    ic_votes_[cpi_].insert(config_.id);
    if (ic_votes_[cpi_].size() >= commit_quorum(config_.f)) perform_instance_change();
}

void Node::handle_instance_change(NodeId from, const InstanceChangeMsg& m) {
    if (m.cpi < cpi_) return;  // vote for a previous round: discard (§IV-D)
    ic_votes_[m.cpi].insert(from);

    // A node that also observes degradation joins the vote.
    if (m.cpi == cpi_ && suspicious_ && !voted_current_cpi_) {
        vote_instance_change(IcReason::kJoin);
        return;  // vote_instance_change re-checks the quorum
    }
    if (ic_votes_[m.cpi].size() >= commit_quorum(config_.f)) {
        // A quorum formed on m.cpi ≥ ours.  Jumping to the quorum's round
        // lets a node that missed earlier rounds (crash, partition) rejoin
        // instead of waiting for votes that will never be re-sent.
        cpi_ = m.cpi;
        perform_instance_change();
    }
}

void Node::perform_instance_change() {
    ctr_ic_done_->add();
    recorder_->event({simulator_.now(), obs::EventType::kInstanceChangeDone, raw(config_.id),
                      obs::kNoInstance, cpi_ + 1, 0, 0.0});
    last_instance_change_ = simulator_.now();
    ic_votes_.erase(ic_votes_.begin(), ic_votes_.upper_bound(cpi_));
    ++cpi_;
    voted_current_cpi_ = false;
    recovering_ = false;  // moving with the quorum counts as resynced
    for (auto& engine : engines_) engine->start_view_change(next(engine->view()));
    reset_monitoring_state();
}

void Node::reset_monitoring_state() {
    for (auto& counter : ordered_counters_) (void)counter.take();
    client_latency_.clear();
    suspicious_ = false;
    bad_window_streak_ = 0;
    grace_remaining_ = MonitoringConfig::kGraceTicks;
}

// ---------------------------------------------------------------------------
// Flood defense (§V).

void Node::count_invalid(net::Address from) {
    const std::uint64_t count = ++invalid_counts_[address_key(from)];
    if (count == kFloodInvalidThreshold && from.kind == net::Address::Kind::kNode) {
        network_.nic(config_.id, from).close_for(simulator_.now(), kFloodCloseDuration);
        ctr_nic_closures_->add();
        recorder_->event({simulator_.now(), obs::EventType::kNicClosed, raw(config_.id),
                          obs::kNoInstance, from.index, 0, 0.0});
    }
}

}  // namespace rbft::core
