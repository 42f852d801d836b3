#include "check/oracles.hpp"

#include <cinttypes>
#include <cstdio>

namespace rbft::check {

namespace {

// Formats a short detail string (printf-style, bounded).
template <typename... Args>
std::string detail_fmt(const char* fmt, Args... args) {
    char buf[192];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

}  // namespace

bool oracle_from_name(const std::string& name, OracleId& out) noexcept {
    for (std::size_t i = 0; i < kOracleCount; ++i) {
        const auto id = static_cast<OracleId>(i);
        if (name == oracle_name(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

void OracleSuite::attach(obs::Recorder& recorder) {
    recorder.set_listener([this](const obs::TraceEvent& e) { on_event(e); });
}

void OracleSuite::report(TimePoint at, OracleId oracle, std::uint32_t node,
                         std::uint32_t instance, std::uint64_t seq, std::string detail) {
    Violation v;
    v.at = at;
    v.oracle = oracle;
    v.node = node;
    v.instance = instance;
    v.seq = seq;
    v.detail = std::move(detail);
    violations_.push_back(std::move(v));
}

void OracleSuite::on_event(const obs::TraceEvent& e) {
    ++events_seen_;
    flush_pending_before(e.at);
#pragma GCC diagnostic push
    // The oracle suite subscribes to a deliberate subset of the trace
    // vocabulary; events it does not consume are not protocol decisions.
#pragma GCC diagnostic ignored "-Wswitch-enum"
    switch (e.type) {
        case obs::EventType::kBatchFingerprint: on_fingerprint(e); break;
        case obs::EventType::kCheckpointStable: on_checkpoint_stable(e); break;
        case obs::EventType::kViewChangeStart: on_view_change_start(e); break;
        case obs::EventType::kViewInstalled: on_view_installed(e); break;
        case obs::EventType::kInstanceChangeVote: on_ic_vote(e); break;
        case obs::EventType::kInstanceChangeDone: on_ic_done(e); break;
        case obs::EventType::kMonitorVerdict: on_monitor_verdict(e); break;
        case obs::EventType::kNodeCrashed: on_node_crashed(e); break;
        case obs::EventType::kNodeRestarted: on_node_restarted(e); break;
        default: break;
    }
#pragma GCC diagnostic pop
}

void OracleSuite::finalize() {
    if (finalized_) return;
    finalized_ = true;
    // Instance-change coordination windows are same-timestamp: any still
    // pending at the end of the run is a violation.
    for (auto& [node, pending] : ic_pending_) {
        count(OracleId::kInstanceChange);
        if (!pending.instances.empty()) {
            report(pending.at, OracleId::kInstanceChange, node, obs::kNoInstance, pending.round,
                   detail_fmt("%zu instance(s) never reacted to instance change round %" PRIu64,
                              pending.instances.size(), pending.round));
        }
    }
    ic_pending_.clear();
}

// -- Agreement / prefix / view-change safety --------------------------------

void OracleSuite::on_fingerprint(const obs::TraceEvent& e) {
    const auto view = static_cast<std::uint64_t>(e.x);

    count(OracleId::kAgreement);
    const auto key = std::make_pair(e.instance, e.a);
    auto it = canonical_.find(key);
    if (it == canonical_.end()) {
        canonical_.emplace(key, SlotRecord{e.b, view, e.node});
    } else if (it->second.fingerprint != e.b) {
        const SlotRecord& seen = it->second;
        if (view != seen.view) {
            count(OracleId::kViewChangeSafety);
            report(e.at, OracleId::kViewChangeSafety, e.node, e.instance, e.a,
                   detail_fmt("seq %" PRIu64 " delivered as %016" PRIx64 " in view %" PRIu64
                              " at node %u, but %016" PRIx64 " in view %" PRIu64
                              " at node %u",
                              e.a, e.b, view, e.node, seen.fingerprint, seen.view,
                              seen.first_node));
        } else {
            report(e.at, OracleId::kAgreement, e.node, e.instance, e.a,
                   detail_fmt("seq %" PRIu64 " delivered as %016" PRIx64
                              " at node %u, but %016" PRIx64 " at node %u",
                              e.a, e.b, e.node, seen.fingerprint, seen.first_node));
        }
    }

    count(OracleId::kPrefix);
    std::uint64_t& last = last_delivered_[std::make_pair(e.node, e.instance)];
    if (e.a <= last) {
        report(e.at, OracleId::kPrefix, e.node, e.instance, e.a,
               detail_fmt("delivered seq %" PRIu64 " after seq %" PRIu64
                          " (non-monotonic within one node lifetime)",
                          e.a, last));
    } else {
        last = e.a;
    }
}

// -- Checkpoints ------------------------------------------------------------

void OracleSuite::on_checkpoint_stable(const obs::TraceEvent& e) {
    count(OracleId::kCheckpoint);
    const std::uint32_t quorum = commit_quorum(config_.f);
    if (e.b < quorum) {
        report(e.at, OracleId::kCheckpoint, e.node, e.instance, e.a,
               detail_fmt("checkpoint %" PRIu64 " became stable with %" PRIu64
                          " votes (quorum is %u)",
                          e.a, e.b, quorum));
    }
    std::uint64_t& last = last_stable_[std::make_pair(e.node, e.instance)];
    if (e.a <= last) {
        report(e.at, OracleId::kCheckpoint, e.node, e.instance, e.a,
               detail_fmt("stable checkpoint moved backwards: %" PRIu64 " after %" PRIu64,
                          e.a, last));
    } else {
        last = e.a;
    }
}

// -- Instance-change coordination -------------------------------------------

void OracleSuite::on_view_change_start(const obs::TraceEvent& e) {
    vc_in_flight_[e.node].insert(e.instance);
    auto it = ic_pending_.find(e.node);
    if (it != ic_pending_.end()) it->second.instances.erase(e.instance);
}

void OracleSuite::on_view_installed(const obs::TraceEvent& e) {
    auto vc = vc_in_flight_.find(e.node);
    if (vc != vc_in_flight_.end()) vc->second.erase(e.instance);
    auto it = ic_pending_.find(e.node);
    if (it != ic_pending_.end()) it->second.instances.erase(e.instance);
}

void OracleSuite::on_ic_vote(const obs::TraceEvent& e) {
    ic_votes_[e.a].insert(e.node);
    if (config_.check_monitoring &&
        e.b == static_cast<std::uint64_t>(core::Node::IcReason::kThroughput)) {
        count(OracleId::kMonitoring);
        const auto& dq = verdicts_[e.node];
        const std::uint32_t needed = core::MonitoringConfig::kConsecutiveBadWindows;
        std::uint32_t judged = 0;
        bool all_bad = true;
        for (auto rit = dq.rbegin(); rit != dq.rend() && judged < needed; ++rit) {
            if (rit->first == obs::kVerdictNotJudged) continue;  // window not comparable
            ++judged;
            if (rit->first == obs::kVerdictOk || rit->second >= config_.monitoring.delta) {
                all_bad = false;
            }
        }
        if (judged < needed || !all_bad) {
            report(e.at, OracleId::kMonitoring, e.node, obs::kNoInstance, e.a,
                   detail_fmt("throughput-reason vote for round %" PRIu64
                              " without %u consecutive below-delta windows "
                              "(judged=%u, all_bad=%d)",
                              e.a, needed, judged, all_bad ? 1 : 0));
        }
    }
}

void OracleSuite::on_ic_done(const obs::TraceEvent& e) {
    count(OracleId::kInstanceChange);
    if (e.a == 0) {
        report(e.at, OracleId::kInstanceChange, e.node, obs::kNoInstance, 0,
               "instance change completed towards round 0");
        return;
    }
    const std::uint64_t round = e.a - 1;
    auto votes = ic_votes_.find(round);
    const std::size_t support = votes == ic_votes_.end() ? 0 : votes->second.size();
    const std::uint32_t quorum = commit_quorum(config_.f);
    if (support < quorum) {
        report(e.at, OracleId::kInstanceChange, e.node, obs::kNoInstance, round,
               detail_fmt("round %" PRIu64 " completed with %zu distinct votes "
                          "(quorum is %u)",
                          round, support, quorum));
    }

    // Every local instance must now move: either it is already in a view
    // change, or a view-change start / install for it arrives at this very
    // timestamp (perform_instance_change is synchronous).
    auto prev = ic_pending_.find(e.node);
    if (prev != ic_pending_.end() && !prev->second.instances.empty()) {
        count(OracleId::kInstanceChange);
        report(prev->second.at, OracleId::kInstanceChange, e.node, obs::kNoInstance,
               prev->second.round,
               detail_fmt("%zu instance(s) never reacted to instance change round %" PRIu64,
                          prev->second.instances.size(), prev->second.round));
    }
    PendingCoordination pending;
    pending.at = e.at;
    pending.round = e.a;
    const auto& in_flight = vc_in_flight_[e.node];
    for (std::uint32_t i = 0; i < config_.instance_count(); ++i) {
        if (!in_flight.contains(i)) pending.instances.insert(i);
    }
    ic_pending_[e.node] = std::move(pending);

    // Monitoring state is reset by the instance change.
    verdicts_[e.node].clear();
}

void OracleSuite::flush_pending_before(TimePoint now) {
    for (auto it = ic_pending_.begin(); it != ic_pending_.end();) {
        if (it->second.at < now) {
            count(OracleId::kInstanceChange);
            if (!it->second.instances.empty()) {
                report(it->second.at, OracleId::kInstanceChange, it->first, obs::kNoInstance,
                       it->second.round,
                       detail_fmt("%zu instance(s) never reacted to instance change "
                                  "round %" PRIu64,
                                  it->second.instances.size(), it->second.round));
            }
            it = ic_pending_.erase(it);
        } else {
            ++it;
        }
    }
}

// -- Monitoring semantics ---------------------------------------------------

void OracleSuite::on_monitor_verdict(const obs::TraceEvent& e) {
    if (!config_.check_monitoring) return;
    auto& dq = verdicts_[e.node];
    dq.emplace_back(e.b, e.x);
    while (dq.size() > 16) dq.pop_front();
}

// -- Fault lifecycle --------------------------------------------------------

void OracleSuite::on_node_crashed(const obs::TraceEvent& e) {
    vc_in_flight_.erase(e.node);
    ic_pending_.erase(e.node);
    verdicts_.erase(e.node);
}

void OracleSuite::on_node_restarted(const obs::TraceEvent& e) {
    // The node restarts with empty volatile state: its delivery and
    // checkpoint cursors legitimately start over (content is still held to
    // the cluster-wide canonical fingerprints).
    for (auto it = last_delivered_.begin(); it != last_delivered_.end();) {
        it = it->first.first == e.node ? last_delivered_.erase(it) : std::next(it);
    }
    for (auto it = last_stable_.begin(); it != last_stable_.end();) {
        it = it->first.first == e.node ? last_stable_.erase(it) : std::next(it);
    }
    vc_in_flight_.erase(e.node);
    ic_pending_.erase(e.node);
    verdicts_.erase(e.node);
}

// -- Reporting --------------------------------------------------------------

std::string OracleSuite::summary() const {
    std::string out;
    for (const Violation& v : violations_) {
        out += detail_fmt("t=%.6fs oracle=%s node=%u instance=%u seq=%" PRIu64 ": ",
                          v.at.seconds(), oracle_name(v.oracle), v.node, v.instance, v.seq);
        out += v.detail;
        out += '\n';
    }
    return out;
}

}  // namespace rbft::check
