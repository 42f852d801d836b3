#include "protocols/baseline.hpp"

#include <cassert>

namespace rbft::protocols {

BaselineNode::BaselineNode(BaselineConfig config, sim::Simulator& simulator,
                           net::Fabric& network, const crypto::KeyStore& keys,
                           const crypto::CostModel& costs,
                           std::unique_ptr<core::Service> service)
    : config_(config),
      simulator_(simulator),
      network_(network),
      keys_(keys),
      costs_(costs),
      service_(std::move(service)),
      cpu_(1),
      recorder_(config.recorder) {
    assert(recorder_ != nullptr && "BaselineConfig::recorder is required");
    bft::EngineConfig ec;
    ec.instance = InstanceId{0};
    ec.node = config_.id;
    ec.n = config_.n;
    ec.f = config_.f;
    ec.batch_max = config_.batch_max;
    ec.batch_max_bytes = config_.batch_max_bytes;
    ec.batch_delay = config_.batch_delay;
    ec.order_full_requests = config_.order_full_requests;
    ec.rotating_primary = config_.rotating_primary;
    ec.checkpoint_interval = config_.checkpoint_interval;
    ec.recorder = config_.recorder;
    ec.message_pool = config_.message_pool;
    engine_ = std::make_unique<bft::InstanceEngine>(ec, simulator_, cpu_.core(0), keys_,
                                                    costs_, *this);

    profiler_ = recorder_->profiler();
    obs::MetricsRegistry& reg = recorder_->metrics();
    const std::uint32_t node = raw(config_.id);
    ctr_requests_verified_ = reg.counter("baseline.requests_verified", node);
    ctr_requests_invalid_ = reg.counter("baseline.requests_invalid", node);
    ctr_requests_shed_ = reg.counter("baseline.requests_shed", node);
    ctr_requests_executed_ = reg.counter("baseline.requests_executed", node);
    ctr_view_changes_ = reg.counter("baseline.view_changes_started", node);
}

core::StateSizes BaselineNode::state_sizes() const {
    core::StateSizes sizes;
    sizes.requests = known_requests_.size();
    sizes.retained_bodies = known_requests_.size();
    sizes.executed_tail = executed_.tail_size();
    sizes.ordered_tail.push_back(engine_->ordered_tail());
    sizes.held_preprepares.push_back(engine_->held_preprepares());
    return sizes;
}

void BaselineNode::on_message(net::Address from, const net::MessagePtr& m) {
    if (faulty_) return;
    obs::prof::Scope zone(profiler_, "baseline.on_message", raw(config_.id));

    if (m->type() == net::MsgType::kRequest) {
        auto req = std::static_pointer_cast<const bft::RequestMsg>(m);
        if (blacklisted_clients_.contains(req->client)) return;
        if (cpu_.core(0).backlog(simulator_) > config_.max_client_queue_delay) {
            ctr_requests_shed_->add();  // bounded client queue overflow
            return;
        }

        Duration cost = costs_.recv_overhead + costs_.digest(req->payload.size()) + costs_.mac_op;
        if (config_.verify_client_signatures) cost += costs_.sig_verify_op;
        cpu_.core(0).submit(simulator_, cost, [this, req] {
            if ((req->corrupt_mac_mask >> raw(config_.id)) & 1) {
                ctr_requests_invalid_->add();
                return;
            }
            if (config_.verify_client_signatures && req->corrupt_sig) {
                ctr_requests_invalid_->add();
                blacklisted_clients_.insert(req->client);
                return;
            }
            ctr_requests_verified_->add();
            if (recorder_->observing()) {
                recorder_->event({simulator_.now(), obs::EventType::kRequestReceived,
                                  raw(config_.id), obs::kNoInstance, raw(req->client),
                                  raw(req->rid), 0.0});
            }
            offered_window_.add(1);

            if (auto it = last_reply_.find(req->client);
                it != last_reply_.end() && it->second.first == req->rid) {
                cpu_.core(0).charge(simulator_, costs_.send_overhead);
                network_.send(net::Address::node(config_.id), net::Address::client(req->client),
                              net::make_msg<bft::ReplyMsg>(config_.message_pool, it->second.second));
                return;
            }
            const RequestKey key{req->client, req->rid};
            if (executed_.contains(key)) return;
            known_requests_[key] = req;
            on_request_verified(req);
        });
        return;
    }

    if (m->type() == net::MsgType::kFlood) {
        cpu_.core(0).charge(simulator_, costs_.recv_overhead +
                                            costs_.digest(m->wire_size()) + costs_.mac_op);
        return;
    }

    if (from.kind != net::Address::Kind::kNode) return;
    engine_->on_message(NodeId{from.index}, m);
}

void BaselineNode::on_request_verified(const std::shared_ptr<const bft::RequestMsg>& req) {
    bft::RequestRef ref;
    ref.client = req->client;
    ref.rid = req->rid;
    ref.digest = req->digest;
    ref.payload_bytes = static_cast<std::uint32_t>(req->payload.size());
    engine_->submit(ref);
}

void BaselineNode::engine_send(InstanceId, NodeId dest, net::MessagePtr m) {
    network_.send(net::Address::node(config_.id), net::Address::node(dest), std::move(m));
}

void BaselineNode::engine_ordered(const bft::OrderedBatch& batch) {
    ordered_window_.add(batch.requests.size());
    for (const auto& ref : batch.requests) execute_request(ref);
    on_batch_executed(batch);
}

void BaselineNode::execute_request(const bft::RequestRef& ref) {
    auto it = known_requests_.find(ref.key());
    if (it == known_requests_.end()) return;  // body never arrived here
    if (executed_.contains(ref.key())) return;
    const auto req = it->second;

    const Duration cost = req->exec_cost + costs_.mac_op + costs_.send_overhead;
    cpu_.core(0).submit(simulator_, cost, [this, req] {
        const RequestKey key{req->client, req->rid};
        if (!executed_.insert(key)) return;
        known_requests_.erase(key);  // executed_ answers for it from here on
        ctr_requests_executed_->add();

        bft::ReplyMsg reply;
        reply.client = req->client;
        reply.rid = req->rid;
        reply.node = config_.id;
        reply.result = service_->execute(req->client, req->payload);
        reply.mac = keys_.mac(crypto::Principal::node(config_.id),
                              crypto::Principal::client(req->client),
                              BytesView(reply.result.data(), reply.result.size()));
        last_reply_[req->client] = {req->rid, reply};
        network_.send(net::Address::node(config_.id), net::Address::client(req->client),
                      net::make_msg<bft::ReplyMsg>(config_.message_pool, reply));
    });
}

void BaselineNode::on_batch_executed(const bft::OrderedBatch&) {}

void BaselineNode::engine_view_installed(InstanceId, ViewId) {}

}  // namespace rbft::protocols
