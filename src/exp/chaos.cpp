#include "exp/chaos.hpp"

#include "common/det.hpp"
#include "fault/injector.hpp"
#include "rbft/cluster.hpp"

namespace rbft::exp {

namespace {

/// One complete soak run (faulty or fault-free twin); fills everything in
/// the output except the baseline figure.
ChaosSoakOutput run_one(const ChaosSoakScenario& scenario, const fault::FaultPlan& plan) {
    core::ClusterConfig cfg;
    cfg.f = scenario.f;
    cfg.seed = scenario.seed;
    cfg.pooled_messages = scenario.pooled_messages;
    cfg.checkpoint_interval = scenario.checkpoint_interval;
    cfg.engine_retry_interval = scenario.engine_retry_interval;
    cfg.backend = scenario.backend;

    auto recorder = scenario.recorder ? scenario.recorder : std::make_shared<obs::Recorder>();
    cfg.recorder = recorder.get();

    core::Cluster cluster(cfg);
    cluster.start();

    fault::FaultInjector injector(cluster, plan, recorder.get());
    if (scenario.inject) injector.arm();

    workload::ClientBehavior behavior;
    behavior.payload_bytes = scenario.payload_bytes;
    behavior.message_pool = cluster.message_pool();
    behavior.set_retransmit_policy(BackoffPolicy::chaos_client(scenario.retransmit_timeout));
    behavior.jitter_seed = scenario.seed;
    auto clients = make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                cfg.n(), cfg.f, scenario.clients, behavior);
    for (auto& c : clients) c->set_recorder(recorder.get());

    // Closed-loop drive: each completion schedules the next request after a
    // think time; retransmission (with backoff) keeps a request alive while
    // its replicas are crashed or partitioned, so the loop never wedges.
    auto& sim = cluster.simulator();
    const TimePoint end = TimePoint{} + scenario.duration;
    for (auto& c : clients) {
        workload::ClientEndpoint* client = c.get();
        client->set_completion_callback([client, &sim, end, scenario](RequestId, Duration) {
            if (sim.now() >= end) return;
            sim.schedule_after(scenario.think_time, [client, &sim, end] {
                if (sim.now() < end) client->send_one();
            });
        });
    }
    // Stagger the initial sends so same-time events do not all hit one node.
    std::int64_t stagger = 0;
    for (auto& c : clients) {
        workload::ClientEndpoint* client = c.get();
        sim.schedule_at(TimePoint{stagger}, [client] { client->send_one(); });
        stagger += 10'000;  // 10 us apart
    }

    sim.run_until(end);

    ChaosSoakOutput out;
    out.plan = plan;
    out.recorder = recorder;
    out.faults_applied = injector.applied();

    // Liveness window: after the last fault clears plus a grace period.
    out.tail_from = scenario.inject
                        ? TimePoint{plan.last_clear_time().ns} + scenario.recovery_grace
                        : end - scenario.quiet_tail;
    if (!scenario.inject || plan.empty()) out.tail_from = end - scenario.quiet_tail;
    out.tail_to = end;
    const RunResult tail = measure_window(clients, out.tail_from, out.tail_to);
    out.tail_kreq_s = tail.kreq_s;

    for (const auto& c : clients) {
        out.completed += c->completed();
        out.client_retransmissions += c->retransmissions();
    }
    out.crashes = recorder->metrics().counter_sum("rbft.crashes");
    out.restarts = recorder->metrics().counter_sum("rbft.restarts");
    out.instance_changes = recorder->metrics().counter_sum("rbft.instance_changes_done");
    out.view_changes = recorder->metrics().counter_sum("bft.view_changes");

    // Safety: every master-instance sequence number must map to one batch
    // fingerprint across all nodes.  Crash/recovery faults are not
    // Byzantine, so every node is correct and participates in the check;
    // state-transfer holes simply leave some seqs attested by fewer nodes.
    out.safety_ok = true;
    det::map<std::uint64_t, std::uint64_t> canon;
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
        for (const auto& [seq, fp] : cluster.node(i).commit_log()) {
            auto [it, inserted] = canon.emplace(seq, fp);
            if (!inserted) {
                ++out.compared_seqs;
                if (it->second != fp) out.safety_ok = false;
            }
        }
    }
    return out;
}

}  // namespace

ChaosSoakOutput run_chaos_soak(const ChaosSoakScenario& scenario) {
    fault::FaultPlan plan = scenario.plan;
    if (scenario.inject && plan.empty()) {
        fault::FaultPlan::SoakOptions opts;
        opts.f = scenario.f;
        opts.duration = scenario.duration;
        opts.quiet_tail = scenario.quiet_tail;
        plan = fault::FaultPlan::random_soak(opts, Rng(scenario.seed ^ 0xFA017153ULL));
    }

    ChaosSoakOutput out = run_one(scenario, plan);
    if (scenario.inject) {
        // Identically-seeded fault-free twin: the liveness yardstick.
        ChaosSoakScenario twin = scenario;
        twin.inject = false;
        twin.recorder = nullptr;  // keep the faulty run's trace clean
        const ChaosSoakOutput base = run_one(twin, {});
        out.baseline_tail_kreq_s = base.tail_kreq_s;
        out.baseline_completed = base.completed;
        out.baseline_progressed = base.completed > 0 && base.tail_kreq_s > 0.0;
        out.liveness_ok = out.baseline_progressed &&
                          liveness_recovered(out.tail_kreq_s, out.baseline_tail_kreq_s,
                                             scenario.liveness_factor);
    }
    return out;
}

}  // namespace rbft::exp
