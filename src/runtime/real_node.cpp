#include "runtime/real_node.hpp"

#include <utility>

#include "rbft/service.hpp"

namespace rbft::runtime {

core::NodeConfig node_config_from_spec(const ClusterSpec& spec, NodeId id) {
    core::NodeConfig nc;
    nc.id = id;
    nc.n = spec.n();
    nc.f = spec.f;
    nc.batch_max = spec.batch_max;
    nc.checkpoint_interval = spec.checkpoint_interval;
    nc.engine_retry_interval = spec.engine_retry_interval;
    return nc;
}

crypto::CostModel cost_model_from_spec(const ClusterSpec& spec) {
    if (spec.cost_model == "paper") return crypto::CostModel{};
    // "zero": the real CPU pays real costs; charging simulated ones on top
    // would double-count and skew wall-clock timers.
    crypto::CostModel zero;
    zero.mac_op = Duration{};
    zero.sig_verify_op = Duration{};
    zero.sig_sign_op = Duration{};
    zero.digest_base = Duration{};
    zero.digest_per_byte = Duration{};
    zero.recv_overhead = Duration{};
    zero.send_overhead = Duration{};
    return zero;
}

RealNode::RealNode(ClusterSpec spec, NodeId id, std::string commitlog_path)
    : spec_(std::move(spec)),
      id_(id),
      keys_(spec_.seed),
      costs_(cost_model_from_spec(spec_)),
      transport_(clock_, spec_.seed ^ (raw(id) * 0x9E3779B97F4A7C15ULL)),
      fabric_(simulator_, transport_, spec_, id),
      executor_(clock_, simulator_, transport_),
      commitlog_path_(std::move(commitlog_path)) {
    core::NodeConfig nc = node_config_from_spec(spec_, id_);
    nc.recorder = &recorder_;
    node_ = std::make_unique<core::Node>(nc, simulator_, fabric_, keys_, costs_,
                                         std::make_unique<core::NullService>());
    fabric_.register_node(id_, [this](net::Address from, const net::MessagePtr& m) {
        node_->on_message(from, m);
    });
}

bool RealNode::start(std::string* error) {
    if (!commitlog_path_.empty()) {
        commitlog_.open(commitlog_path_, std::ios::out | std::ios::trunc);
        if (!commitlog_) {
            if (error != nullptr) *error = "cannot open commit log " + commitlog_path_;
            return false;
        }
    }
    if (!transport_.listen(spec_.nodes.at(raw(id_)).port, error)) return false;
    node_->start();
    return true;
}

void RealNode::append_commitlog() {
    const auto& log = node_->commit_log();
    if (!commitlog_.is_open() || commitlog_written_ >= log.size()) return;
    static constexpr char kHex[] = "0123456789abcdef";
    for (; commitlog_written_ < log.size(); ++commitlog_written_) {
        const auto& [seq, fp] = log[commitlog_written_];
        commitlog_ << seq << ' ';
        for (int shift = 60; shift >= 0; shift -= 4) {
            commitlog_ << kHex[(fp >> shift) & 0xF];
        }
        commitlog_ << '\n';
    }
    commitlog_.flush();
}

void RealNode::run() {
    while (!executor_.stop_requested()) {
        executor_.step();
        append_commitlog();
    }
}

void RealNode::run_for(Duration d) {
    const TimePoint end = clock_.now() + d;
    while (!executor_.stop_requested() && clock_.now() < end) {
        executor_.step();
        append_commitlog();
    }
}

}  // namespace rbft::runtime
