#include "protocols/aardvark/aardvark.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"

namespace rbft::protocols {

AardvarkNode::AardvarkNode(AardvarkConfig config, sim::Simulator& simulator,
                           net::Fabric& network, const crypto::KeyStore& keys,
                           const crypto::CostModel& costs,
                           std::unique_ptr<core::Service> service)
    : BaselineNode(config.base, simulator, network, keys, costs, std::move(service)),
      acfg_(config) {}

void AardvarkNode::start() {
    view_start_ = simulator_.now();
    timer_.start(simulator_, acfg_.check_period, [this] { tick(); });
}

void AardvarkNode::tick() {
    if (faulty_) return;
    const double period_s = acfg_.check_period.seconds();
    const std::uint64_t ordered = take_ordered_window();
    const double measured_tps = static_cast<double>(ordered) / period_s;
    const double offered_tps = static_cast<double>(take_offered_window()) / period_s;
    view_ordered_ += ordered;
    ++ticks_in_view_;

    // Escalate a stalled view change (the elected primary may be faulty).
    if (engine_->view_change_in_progress()) {
        if (simulator_.now() - engine_->view_change_started_at() > acfg_.view_change_timeout) {
            engine_->start_view_change(next(engine_->view_change_target()));
        }
        return;
    }

    // The first windows of a view mix the previous view's drain burst with
    // the pipeline refilling; don't judge the new primary on them.
    if (ticks_in_view_ <= 4) return;

    // With no view history yet (start of the run), the requirement
    // bootstraps from the throughput the primary shows at the beginning of
    // its view — a primary cannot drop below 90% of how it started.
    if (required_tps_ <= 0.0 && history_.empty() && measured_tps > 0.0) {
        required_base_tps_ = acfg_.required_fraction * measured_tps;
        required_tps_ = required_base_tps_;
    }

    // Requirement schedule: stable during grace, then raised each check.
    if (simulator_.now() - view_start_ >= acfg_.grace_period && required_tps_ > 0.0) {
        required_tps_ *= acfg_.raise_factor;
    }

    // Throughput expectation: only meaningful when clients actually offer
    // load the primary failed to order (an idle primary is innocent).
    // Unmet demand shows either as a standing backlog at the replica or as
    // a verified-request rate above the ordered rate.
    const bool demand_unmet = engine_->pending_requests() > config_.batch_max ||
                              offered_tps > measured_tps * 1.05;
    // Two consecutive failing windows required: a single window can dip on
    // a load transition (queue fill) without the primary being at fault.
    if (required_tps_ > 0.0 && measured_tps < required_tps_ && demand_unmet) {
        if (++bad_windows_ < 2) return;
        if (Logger* lg = simulator_.logger(); lg && lg->enabled(LogLevel::kDebug)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "[%u] t=%.2f VC(required) measured=%.0f required=%.0f offered=%.0f pend=%zu",
                          raw(config_.id), simulator_.now().seconds(), measured_tps,
                          required_tps_, offered_tps, engine_->pending_requests());
            lg->log(LogLevel::kDebug, "aardvark", buf);
        }
        trigger_view_change();
        return;
    }
    bad_windows_ = 0;

    // Heartbeat: requests waiting but no PRE-PREPARE from the primary.
    // (The timer restarts on each ordering message, §III-B; a backlog alone
    // is not the primary's fault as long as it keeps emitting batches.)
    if (engine_->pending_requests() > 0 || engine_->oldest_waiting_age().ns > 0) {
        const TimePoint last_sign_of_life =
            std::max(view_start_, engine_->last_preprepare_seen());
        if (simulator_.now() - last_sign_of_life > acfg_.heartbeat_timeout) {
            if (Logger* lg = simulator_.logger(); lg && lg->enabled(LogLevel::kDebug)) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "[%u] t=%.2f VC(heartbeat)", raw(config_.id),
                              simulator_.now().seconds());
                lg->log(LogLevel::kDebug, "aardvark", buf);
            }
            trigger_view_change();
        }
    }
}

void AardvarkNode::trigger_view_change() {
    ctr_view_changes_->add();
    engine_->start_view_change(next(engine_->view()));
}

void AardvarkNode::engine_view_installed(InstanceId, ViewId) {
    // Record the finished view's *sustained* throughput (drain bursts after
    // a view change would poison a max-of-windows measure) and compute the
    // new requirement from the last N views' maximum.
    const double view_seconds = (simulator_.now() - view_start_).seconds();
    if (view_seconds > 0.0 && view_ordered_ > 0) {
        history_.push_back(static_cast<double>(view_ordered_) / view_seconds);
        while (history_.size() > acfg_.history_views) history_.pop_front();
    }
    double max_tps = 0.0;
    for (double tps : history_) max_tps = std::max(max_tps, tps);
    required_base_tps_ = acfg_.required_fraction * max_tps;
    required_tps_ = required_base_tps_;
    view_ordered_ = 0;
    ticks_in_view_ = 0;
    view_start_ = simulator_.now();
}

}  // namespace rbft::protocols
