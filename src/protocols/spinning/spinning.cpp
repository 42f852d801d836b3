#include "protocols/spinning/spinning.hpp"

namespace rbft::protocols {

SpinningNode::SpinningNode(SpinningConfig config, sim::Simulator& simulator,
                           net::Fabric& network, const crypto::KeyStore& keys,
                           const crypto::CostModel& costs,
                           std::unique_ptr<core::Service> service)
    : BaselineNode(config.base, simulator, network, keys, costs, std::move(service)),
      scfg_(config),
      stimeout_(config.stimeout) {
    engine_->set_primary_filter([this](NodeId node) { return blacklist_.contains(node); });
    ctr_timeouts_ = recorder_->metrics().counter("spinning.timeouts", raw(config_.id));
}

void SpinningNode::start() {
    timer_.start(simulator_, scfg_.check_period, [this] { tick(); });
}

void SpinningNode::tick() {
    if (faulty_) return;
    if (engine_->view_change_in_progress()) return;  // merge underway
    if (engine_->oldest_waiting_age() <= stimeout_) return;
    // The waiting request only implicates the *current* primary for the
    // time since the last delivery or merge.
    if (simulator_.now() - progress_base_ <= stimeout_) return;

    // Stimeout expired: blacklist the current primary, double Stimeout and
    // merge to the next one.
    ctr_timeouts_->add();
    const NodeId culprit = engine_->primary();
    if (culprit != config_.id && !blacklist_.contains(culprit)) {
        blacklist_.insert(culprit);
        blacklist_order_.push_back(culprit);
        // Liveness: at most f blacklisted; unlist the oldest beyond that.
        while (blacklist_order_.size() > config_.f) {
            blacklist_.erase(blacklist_order_.front());
            blacklist_order_.pop_front();
        }
    }
    stimeout_ = stimeout_ * std::int64_t{2};
    ctr_view_changes_->add();
    engine_->start_view_change(next(engine_->view()));
}

void SpinningNode::on_batch_executed(const bft::OrderedBatch&) {
    // Successful ordering resets Stimeout (§III-C).
    stimeout_ = scfg_.stimeout;
    progress_base_ = simulator_.now();
}

void SpinningNode::engine_view_installed(InstanceId, ViewId) {
    progress_base_ = simulator_.now();
}

}  // namespace rbft::protocols
