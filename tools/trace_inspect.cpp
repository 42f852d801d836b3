// trace_inspect: summarizes a flight-recorder export (trace.json written by
// obs::Recorder, e.g. via RBFT_OBS_DIR) without any JSON dependency — the
// writer emits exactly one event object per line, so a line-oriented field
// scanner is sufficient and keeps the tool dependency-free.
//
//   trace_inspect <trace.json> [faults] [--events] [--type <name>] [--node <id>]
//   trace_inspect replay <violation.json>
//
// Prints: per-protocol-instance ordering rate and phase latencies
// (pre-prepare -> prepared -> committed -> delivered), the protocol-instance
// change timeline with the monitoring verdicts that led to each, every state
// transfer, and NIC / crypto substrate summaries.  --events dumps the
// (filtered) raw timeline.
//
// The `faults` subcommand renders the fault/recovery view of a chaos run:
// the injected fault timeline (crash/recover, partition/heal, link and NIC
// degradation as emitted by fault::FaultInjector), the view / instance
// changes observed in response, and — for every clearing event — the time
// until the master instance delivered its next batch (recovery lag).
//
// The `replay` subcommand re-runs a violation artifact written by the
// schedule explorer (check::explore / tools/check_explore) and reports
// whether the recorded oracle violation reproduces.  Exit 0 = reproduced.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "check/artifact.hpp"
#include "common/histogram.hpp"
#include "obs/trace.hpp"

namespace {

struct Event {
    std::int64_t t_ns = 0;
    std::string type;
    std::int64_t node = -1;
    std::int64_t instance = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double x = 0.0;
};

/// Extracts the value following `"field": ` on `line`; nullptr if absent.
const char* field_pos(const std::string& line, const char* field) {
    const std::string needle = std::string("\"") + field + "\": ";
    const auto at = line.find(needle);
    return at == std::string::npos ? nullptr : line.c_str() + at + needle.size();
}

bool parse_event_line(const std::string& line, Event& e) {
    const char* t = field_pos(line, "t_ns");
    const char* type = field_pos(line, "type");
    if (!t || !type) return false;
    e.t_ns = std::strtoll(t, nullptr, 10);
    if (*type == '"') ++type;
    const char* type_end = std::strchr(type, '"');
    e.type.assign(type, type_end ? static_cast<std::size_t>(type_end - type) : 0);
    if (const char* p = field_pos(line, "node")) e.node = std::strtoll(p, nullptr, 10);
    if (const char* p = field_pos(line, "instance")) e.instance = std::strtoll(p, nullptr, 10);
    if (const char* p = field_pos(line, "a")) e.a = std::strtoull(p, nullptr, 10);
    if (const char* p = field_pos(line, "b")) e.b = std::strtoull(p, nullptr, 10);
    if (const char* p = field_pos(line, "x")) e.x = std::strtod(p, nullptr);
    return true;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Quantiles {
    double mean = 0.0, p50 = 0.0, p99 = 0.0;
};

Quantiles quantiles(std::vector<double>& v) {
    Quantiles q;
    if (v.empty()) return q;
    double sum = 0.0;
    for (double d : v) sum += d;
    q.mean = sum / static_cast<double>(v.size());
    std::sort(v.begin(), v.end());
    q.p50 = rbft::quantile_sorted(v, 0.50);
    q.p99 = rbft::quantile_sorted(v, 0.99);
    return q;
}

/// Per protocol instance: ordering progress and phase-latency samples.
struct InstanceSummary {
    std::uint64_t preprepares = 0;
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    std::int64_t first_deliver_ns = -1;
    std::int64_t last_deliver_ns = -1;
    // (node, seq) -> accept time, for phase latencies on one observer node.
    std::map<std::pair<std::int64_t, std::uint64_t>, std::int64_t> accepted_at;
    std::map<std::pair<std::int64_t, std::uint64_t>, std::int64_t> prepared_at;
    std::vector<double> prepare_s;   // pre-prepare accepted -> prepared
    std::vector<double> commit_s;    // prepared -> committed
    std::vector<double> order_s;     // pre-prepare -> delivered (engine-reported)
};

bool is_fault_event(const std::string& type) {
    return type == "node_crashed" || type == "node_restarted" ||
           type == "partition_started" || type == "partition_healed" ||
           type == "link_degraded" || type == "link_restored" ||
           type == "nic_degraded" || type == "nic_restored";
}

bool is_clearing_event(const std::string& type) {
    return type == "node_restarted" || type == "partition_healed" ||
           type == "link_restored" || type == "nic_restored";
}

/// `faults` subcommand: injected events vs observed protocol reaction, plus
/// recovery lag (clear -> next master-instance delivery).
int faults_summary(const std::vector<Event>& events) {
    std::vector<const Event*> injected;
    std::vector<const Event*> reactions;
    std::vector<std::int64_t> master_deliveries;  // times, ascending
    for (const Event& e : events) {
        if (is_fault_event(e.type)) {
            injected.push_back(&e);
        } else if (e.type == "instance_change_done" || e.type == "view_change_start") {
            reactions.push_back(&e);
        } else if (e.type == "batch_delivered" && e.instance == 0) {
            master_deliveries.push_back(e.t_ns);
        }
    }
    if (injected.empty()) {
        std::printf("no fault events in trace (run with a FaultInjector and tracing on)\n");
        return 0;
    }

    std::printf("-- injected faults --\n");
    for (const Event* e : injected) {
        std::printf("%12.6f  %-18s", seconds(e->t_ns), e->type.c_str());
        if (e->type == "node_crashed" || e->type == "node_restarted") {
            std::printf("  node %lld", static_cast<long long>(e->node));
        } else if (e->type == "partition_started") {
            std::printf("  %llu groups", static_cast<unsigned long long>(e->a));
        } else if (e->type == "link_degraded") {
            std::printf("  link %llu<->%llu loss=%.2f", static_cast<unsigned long long>(e->a),
                        static_cast<unsigned long long>(e->b), e->x);
        } else if (e->type == "link_restored") {
            std::printf("  link %llu<->%llu", static_cast<unsigned long long>(e->a),
                        static_cast<unsigned long long>(e->b));
        } else if (e->type == "nic_degraded") {
            std::printf("  node %llu bandwidth x%.2f", static_cast<unsigned long long>(e->a),
                        e->x);
        } else if (e->type == "nic_restored") {
            std::printf("  node %llu", static_cast<unsigned long long>(e->a));
        }
        std::printf("\n");
    }

    std::uint64_t instance_changes = 0, view_changes = 0;
    for (const Event* e : reactions) {
        if (e->type == "instance_change_done") ++instance_changes;
        if (e->type == "view_change_start") ++view_changes;
    }
    std::printf("\n-- observed protocol reaction --\n");
    std::printf("instance changes done: %llu   view changes started: %llu\n",
                static_cast<unsigned long long>(instance_changes),
                static_cast<unsigned long long>(view_changes));
    for (const Event* e : reactions) {
        if (e->type == "instance_change_done") {
            std::printf("%12.6f  node %-3lld instance change done, new cpi %llu\n",
                        seconds(e->t_ns), static_cast<long long>(e->node),
                        static_cast<unsigned long long>(e->a));
        } else {
            std::printf("%12.6f  node %-3lld inst %-2lld view change -> view %llu\n",
                        seconds(e->t_ns), static_cast<long long>(e->node),
                        static_cast<long long>(e->instance),
                        static_cast<unsigned long long>(e->a));
        }
    }

    std::printf("\n-- recovery after clearing events --\n");
    for (const Event* e : injected) {
        if (!is_clearing_event(e->type)) continue;
        const auto next = std::upper_bound(master_deliveries.begin(), master_deliveries.end(),
                                           e->t_ns);
        if (next == master_deliveries.end()) {
            std::printf("%12.6f  %-18s no master delivery afterwards\n", seconds(e->t_ns),
                        e->type.c_str());
        } else {
            std::printf("%12.6f  %-18s next master delivery +%.6f s\n", seconds(e->t_ns),
                        e->type.c_str(), seconds(*next - e->t_ns));
        }
    }
    return 0;
}

/// `replay` subcommand: re-runs a violation artifact and checks that the
/// recorded oracle still fires on the recorded (seed, schedule).
int replay_artifact(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_inspect: cannot open %s\n", path);
        return 1;
    }
    rbft::check::ViolationArtifact artifact;
    if (!rbft::check::parse_artifact(in, artifact)) {
        std::fprintf(stderr, "trace_inspect: %s is not a valid violation artifact\n", path);
        return 2;
    }
    std::printf("%s: oracle=%s seed=%llu perturbations=%zu\n", path,
                rbft::check::oracle_name(artifact.oracle),
                static_cast<unsigned long long>(artifact.seed), artifact.schedule.size());
    std::printf("recorded detail: %s\n", artifact.detail.c_str());
    const rbft::check::ScheduleResult result =
        rbft::check::run_schedule(artifact.scenario, artifact.seed, artifact.schedule);
    bool reproduced = false;
    for (const rbft::check::Violation& v : result.violations) {
        if (v.oracle == artifact.oracle) reproduced = true;
    }
    std::printf("replay: %llu events observed, %zu violation(s)\n",
                static_cast<unsigned long long>(result.events), result.violations.size());
    for (const rbft::check::Violation& v : result.violations) {
        std::printf("  t=%.6fs oracle=%s node=%u instance=%u seq=%llu: %s\n", v.at.seconds(),
                    rbft::check::oracle_name(v.oracle), v.node, v.instance,
                    static_cast<unsigned long long>(v.seq), v.detail.c_str());
    }
    std::printf("%s\n", reproduced ? "REPRODUCED" : "NOT REPRODUCED");
    return reproduced ? 0 : 1;
}

const char* verdict_name(std::uint64_t code) {
    switch (code) {
        case rbft::obs::kVerdictOk: return "ok";
        case rbft::obs::kVerdictBelowDelta: return "below-delta";
        case rbft::obs::kVerdictVoted: return "voted";
        case rbft::obs::kVerdictNotJudged: return "not-judged";
    }
    return "?";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::strcmp(argv[1], "replay") == 0) {
        if (argc != 3) {
            std::fprintf(stderr, "usage: trace_inspect replay <violation.json>\n");
            return 2;
        }
        return replay_artifact(argv[2]);
    }
    const char* path = nullptr;
    bool dump_events = false;
    bool faults_mode = false;
    const char* filter_type = nullptr;
    std::int64_t filter_node = -2;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--events") == 0) {
            dump_events = true;
        } else if (std::strcmp(argv[i], "faults") == 0) {
            faults_mode = true;
        } else if (std::strcmp(argv[i], "--type") == 0 && i + 1 < argc) {
            filter_type = argv[++i];
        } else if (std::strcmp(argv[i], "--node") == 0 && i + 1 < argc) {
            filter_node = std::strtoll(argv[++i], nullptr, 10);
        } else if (argv[i][0] != '-' && !path) {
            path = argv[i];
        } else {
            std::fprintf(stderr,
                         "usage: trace_inspect <trace.json> [faults] [--events] "
                         "[--type <name>] [--node <id>]\n");
            return 2;
        }
    }
    if (!path) {
        std::fprintf(stderr, "usage: trace_inspect <trace.json> [--events]\n");
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_inspect: cannot open %s\n", path);
        return 1;
    }

    std::uint64_t recorded = 0, dropped = 0;
    std::vector<Event> events;
    std::string line;
    while (std::getline(in, line)) {
        if (const char* p = field_pos(line, "t_ns")) {
            (void)p;
            Event e;
            if (parse_event_line(line, e)) events.push_back(std::move(e));
        } else if (const char* r = field_pos(line, "recorded")) {
            recorded = std::strtoull(r, nullptr, 10);
        } else if (const char* d = field_pos(line, "dropped")) {
            dropped = std::strtoull(d, nullptr, 10);
        }
    }
    if (events.empty()) {
        std::fprintf(stderr, "trace_inspect: no events in %s\n", path);
        return 1;
    }
    const double span_s = seconds(events.back().t_ns - events.front().t_ns);
    std::printf("%s: %zu events retained (%llu recorded, %llu lost to wraparound), %.3f s span\n",
                path, events.size(), static_cast<unsigned long long>(recorded),
                static_cast<unsigned long long>(dropped), span_s);

    if (faults_mode) return faults_summary(events);

    if (dump_events) {
        for (const Event& e : events) {
            if (filter_type && e.type != filter_type) continue;
            if (filter_node != -2 && e.node != filter_node) continue;
            std::printf("%12.6f  %-22s node=%-3lld inst=%-2lld a=%llu b=%llu x=%g\n",
                        seconds(e.t_ns), e.type.c_str(), static_cast<long long>(e.node),
                        static_cast<long long>(e.instance), static_cast<unsigned long long>(e.a),
                        static_cast<unsigned long long>(e.b), e.x);
        }
        return 0;
    }

    std::map<std::int64_t, InstanceSummary> instances;
    std::vector<const Event*> ic_timeline;  // votes, dones, view changes
    std::vector<const Event*> transfers;    // state transfers
    std::map<std::uint64_t, std::uint64_t> verdict_counts;
    std::vector<double> nic_backlog_ns;
    std::map<std::uint64_t, std::pair<std::uint64_t, double>> crypto;  // op -> (count, cost)
    std::uint64_t nic_closures = 0, drops = 0;

    for (const Event& e : events) {
        if (e.type == "pre_prepare_sent") {
            ++instances[e.instance].preprepares;
        } else if (e.type == "pre_prepare_accepted") {
            instances[e.instance].accepted_at[{e.node, e.a}] = e.t_ns;
        } else if (e.type == "prepared") {
            InstanceSummary& s = instances[e.instance];
            const auto key = std::make_pair(e.node, e.a);
            if (auto it = s.accepted_at.find(key); it != s.accepted_at.end()) {
                s.prepare_s.push_back(seconds(e.t_ns - it->second));
            }
            s.prepared_at[key] = e.t_ns;
        } else if (e.type == "committed") {
            InstanceSummary& s = instances[e.instance];
            const auto key = std::make_pair(e.node, e.a);
            if (auto it = s.prepared_at.find(key); it != s.prepared_at.end()) {
                s.commit_s.push_back(seconds(e.t_ns - it->second));
                s.prepared_at.erase(it);
            }
            s.accepted_at.erase(key);
        } else if (e.type == "batch_delivered") {
            InstanceSummary& s = instances[e.instance];
            ++s.batches;
            s.requests += e.b;
            s.order_s.push_back(e.x);
            if (s.first_deliver_ns < 0) s.first_deliver_ns = e.t_ns;
            s.last_deliver_ns = e.t_ns;
        } else if (e.type == "instance_change_vote" || e.type == "instance_change_done" ||
                   e.type == "view_change_start" || e.type == "view_installed") {
            ic_timeline.push_back(&e);
        } else if (e.type == "state_transfer") {
            transfers.push_back(&e);
        } else if (e.type == "monitor_verdict") {
            ++verdict_counts[e.b];
        } else if (e.type == "nic_sample") {
            nic_backlog_ns.push_back(static_cast<double>(e.a));
        } else if (e.type == "nic_closed") {
            ++nic_closures;
        } else if (e.type == "message_dropped") {
            ++drops;
        } else if (e.type == "crypto_charge") {
            auto& [count, cost] = crypto[e.a];
            ++count;
            cost += e.x;
        }
    }

    std::printf("\n-- per-instance ordering (deliveries seen across all nodes) --\n");
    for (auto& [inst, s] : instances) {
        const double window_s =
            s.last_deliver_ns > s.first_deliver_ns ? seconds(s.last_deliver_ns - s.first_deliver_ns)
                                                   : 0.0;
        const double rate =
            window_s > 0.0 ? static_cast<double>(s.requests) / window_s / 1000.0 : 0.0;
        const Quantiles prep = quantiles(s.prepare_s);
        const Quantiles comm = quantiles(s.commit_s);
        const Quantiles order = quantiles(s.order_s);
        std::printf("instance %-2lld %8llu req in %6llu batches  %8.2f kreq/s",
                    static_cast<long long>(inst), static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.batches), rate);
        std::printf("  | phase ms: prepare p50=%.3f p99=%.3f  commit p50=%.3f p99=%.3f  "
                    "pp->exec p50=%.3f p99=%.3f\n",
                    prep.p50 * 1e3, prep.p99 * 1e3, comm.p50 * 1e3, comm.p99 * 1e3,
                    order.p50 * 1e3, order.p99 * 1e3);
    }

    if (!verdict_counts.empty()) {
        std::printf("\n-- monitoring verdicts --\n");
        for (const auto& [code, count] : verdict_counts) {
            std::printf("%-12s %llu\n", verdict_name(code),
                        static_cast<unsigned long long>(count));
        }
    }

    if (!ic_timeline.empty()) {
        std::printf("\n-- view / protocol-instance change timeline --\n");
        for (const Event* e : ic_timeline) {
            if (e->type == "instance_change_vote") {
                std::printf("%12.6f  node %-3lld votes INSTANCE_CHANGE against cpi %llu "
                            "(reason %llu)\n",
                            seconds(e->t_ns), static_cast<long long>(e->node),
                            static_cast<unsigned long long>(e->a),
                            static_cast<unsigned long long>(e->b));
            } else if (e->type == "instance_change_done") {
                std::printf("%12.6f  node %-3lld instance change done, new cpi %llu\n",
                            seconds(e->t_ns), static_cast<long long>(e->node),
                            static_cast<unsigned long long>(e->a));
            } else if (e->type == "view_change_start") {
                std::printf("%12.6f  node %-3lld inst %-2lld view change -> view %llu\n",
                            seconds(e->t_ns), static_cast<long long>(e->node),
                            static_cast<long long>(e->instance),
                            static_cast<unsigned long long>(e->a));
            } else {
                std::printf("%12.6f  node %-3lld inst %-2lld installed view %llu\n",
                            seconds(e->t_ns), static_cast<long long>(e->node),
                            static_cast<long long>(e->instance),
                            static_cast<unsigned long long>(e->a));
            }
        }
    }

    if (!transfers.empty()) {
        std::printf("\n-- state transfers (slots skipped, never delivered locally) --\n");
        for (const Event* e : transfers) {
            std::printf("%12.6f  node %-3lld inst %-2lld skipped seq %llu..%llu "
                        "(%g held PRE-PREPAREs in that range)\n",
                        seconds(e->t_ns), static_cast<long long>(e->node),
                        static_cast<long long>(e->instance),
                        static_cast<unsigned long long>(e->a),
                        static_cast<unsigned long long>(e->b), e->x);
        }
    }

    if (!nic_backlog_ns.empty() || nic_closures || drops) {
        const Quantiles nic = quantiles(nic_backlog_ns);
        std::printf("\n-- substrate --\n");
        std::printf("nic backlog (sampled): mean=%.1fus p99=%.1fus over %zu samples; "
                    "%llu closures, %llu closed-NIC drops\n",
                    nic.mean * 1e-3, nic.p99 * 1e-3, nic_backlog_ns.size(),
                    static_cast<unsigned long long>(nic_closures),
                    static_cast<unsigned long long>(drops));
    }
    for (const auto& [op, stat] : crypto) {
        static const char* kOps[] = {"mac", "sig_verify", "sig_sign"};
        std::printf("crypto %-10s %8llu charges, %.3f s total\n",
                    op < 3 ? kOps[op] : "?", static_cast<unsigned long long>(stat.first),
                    stat.second);
    }
    return 0;
}
