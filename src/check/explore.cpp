#include "check/explore.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "exp/harness.hpp"
#include "exp/parallel.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"

namespace rbft::check {

namespace {

/// Translates the flat perturbation set into injector events.
fault::FaultPlan plan_from(const std::vector<Perturbation>& perturbations) {
    fault::FaultPlan plan;
    for (const Perturbation& p : perturbations) {
        switch (p.kind) {
            case Perturbation::Kind::kLinkDelay: {
                net::LinkFault lf;
                lf.extra_delay = Duration{p.delay_ns};
                plan.degrade_link(TimePoint{p.at_ns}, NodeId{p.a}, NodeId{p.b}, lf);
                plan.restore_link(TimePoint{p.until_ns}, NodeId{p.a}, NodeId{p.b});
                break;
            }
            case Perturbation::Kind::kLinkReorder: {
                net::LinkFault lf;
                lf.reorder_prob = p.p;
                lf.reorder_window = Duration{p.delay_ns};
                plan.degrade_link(TimePoint{p.at_ns}, NodeId{p.a}, NodeId{p.b}, lf);
                plan.restore_link(TimePoint{p.until_ns}, NodeId{p.a}, NodeId{p.b});
                break;
            }
            case Perturbation::Kind::kLinkLoss: {
                net::LinkFault lf;
                lf.loss_prob = p.p;
                plan.degrade_link(TimePoint{p.at_ns}, NodeId{p.a}, NodeId{p.b}, lf);
                plan.restore_link(TimePoint{p.until_ns}, NodeId{p.a}, NodeId{p.b});
                break;
            }
            case Perturbation::Kind::kCrash:
                plan.crash(TimePoint{p.at_ns}, NodeId{p.a});
                plan.recover(TimePoint{p.until_ns}, NodeId{p.a});
                break;
        }
    }
    return plan;
}

[[nodiscard]] bool trips(const ScheduleResult& r, OracleId target) {
    return std::any_of(r.violations.begin(), r.violations.end(),
                       [target](const Violation& v) { return v.oracle == target; });
}

}  // namespace

std::vector<Perturbation> sample_perturbations(const ExploreScenario& scenario,
                                               std::uint64_t seed) {
    Rng rng(seed ^ 0x5EED5C3EDULL);
    const std::uint32_t n = cluster_size(scenario.f);
    const std::int64_t d = scenario.duration.ns;
    const std::int64_t window_start = d / 10;
    const std::int64_t window_end = (d * 7) / 10;
    const std::int64_t clear_by = (d * 9) / 10;
    const std::int64_t min_hold = std::max<std::int64_t>(d / 20, 1);
    const std::int64_t max_hold = std::max<std::int64_t>(d / 5, min_hold + 1);

    const auto span = [&](std::int64_t lo, std::int64_t hi) -> std::int64_t {
        if (hi <= lo) return lo;
        return lo + static_cast<std::int64_t>(
                        rng.next_below(static_cast<std::uint64_t>(hi - lo)));
    };

    std::vector<Perturbation> out;
    const std::uint32_t count =
        scenario.max_perturbations == 0
            ? 0
            : 1 + static_cast<std::uint32_t>(rng.next_below(scenario.max_perturbations));
    std::int64_t next_crash_allowed = window_start;
    for (std::uint32_t i = 0; i < count; ++i) {
        Perturbation p;
        p.kind = static_cast<Perturbation::Kind>(rng.next_below(4));
        const std::int64_t hold = span(min_hold, max_hold);
        if (p.kind == Perturbation::Kind::kCrash) {
            // Crash windows stay disjoint: never more than one node (≤ f)
            // down at a time, and everything recovers before the run ends.
            if (next_crash_allowed >= window_end) {
                p.kind = Perturbation::Kind::kLinkDelay;
            } else {
                p.a = static_cast<std::uint32_t>(rng.next_below(n));
                p.at_ns = span(next_crash_allowed, window_end);
                p.until_ns = std::min(p.at_ns + hold, clear_by);
                next_crash_allowed = p.until_ns + min_hold;
                out.push_back(p);
                continue;
            }
        }
        p.a = static_cast<std::uint32_t>(rng.next_below(n));
        p.b = static_cast<std::uint32_t>(rng.next_below(n));
        if (p.b == p.a) p.b = (p.b + 1) % n;
        p.at_ns = span(window_start, window_end);
        p.until_ns = std::min(p.at_ns + hold, clear_by);
        switch (p.kind) {
            case Perturbation::Kind::kLinkDelay:
                p.delay_ns = span(microseconds(50.0).ns, microseconds(500.0).ns);
                break;
            case Perturbation::Kind::kLinkReorder:
                p.p = 0.05 + rng.next_double() * 0.25;
                p.delay_ns = span(microseconds(100.0).ns, microseconds(1000.0).ns);
                break;
            case Perturbation::Kind::kLinkLoss:
                p.p = 0.02 + rng.next_double() * 0.15;
                break;
            case Perturbation::Kind::kCrash:
                break;  // unreachable (handled above)
        }
        out.push_back(p);
    }
    return out;
}

ScheduleResult run_schedule(const ExploreScenario& scenario, std::uint64_t seed,
                            const std::vector<Perturbation>& perturbations) {
    core::ClusterConfig cfg;
    cfg.f = scenario.f;
    cfg.seed = seed;  // also re-seeds per-link jitter ("jitter resampling")
    cfg.pooled_messages = scenario.pooled_messages;
    cfg.checkpoint_interval = scenario.checkpoint_interval;
    cfg.engine_retry_interval = scenario.engine_retry_interval;
    cfg.engine_test_faults = scenario.test_faults;
    cfg.backend = scenario.backend;

    obs::Recorder recorder;
    cfg.recorder = &recorder;

    OracleConfig ocfg;
    ocfg.n = cfg.n();
    ocfg.f = scenario.f;
    ocfg.instances = cfg.instances_override;
    ocfg.monitoring = cfg.monitoring;
    ocfg.check_monitoring = scenario.check_monitoring;
    OracleSuite oracles(ocfg);
    oracles.attach(recorder);

    core::Cluster cluster(cfg);
    cluster.start();

    const fault::FaultPlan plan = plan_from(perturbations);
    fault::FaultInjector injector(cluster, plan, &recorder);
    if (!plan.empty()) injector.arm();

    workload::ClientBehavior behavior;
    behavior.payload_bytes = scenario.payload_bytes;
    behavior.message_pool = cluster.message_pool();
    behavior.retransmit_timeout = scenario.retransmit_timeout;
    behavior.retransmit_backoff = 2.0;
    behavior.retransmit_cap = scenario.retransmit_timeout * std::int64_t{16};
    behavior.retransmit_jitter = 0.1;
    behavior.jitter_seed = seed;
    auto clients = exp::make_clients(cluster.simulator(), cluster.network(), cluster.keys(),
                                     cfg.n(), cfg.f, scenario.clients, behavior);
    for (auto& c : clients) c->set_recorder(&recorder);

    auto& sim = cluster.simulator();
    const TimePoint end = TimePoint{} + scenario.duration;
    const Duration think = scenario.think_time;
    for (auto& c : clients) {
        workload::ClientEndpoint* client = c.get();
        client->set_completion_callback([client, &sim, end, think](RequestId, Duration) {
            if (sim.now() >= end) return;
            sim.schedule_after(think, [client, &sim, end] {
                if (sim.now() < end) client->send_one();
            });
        });
    }
    std::int64_t stagger = 0;
    for (auto& c : clients) {
        workload::ClientEndpoint* client = c.get();
        sim.schedule_at(TimePoint{stagger}, [client] { client->send_one(); });
        stagger += 10'000;  // 10 us apart
    }

    sim.run_until(end);
    oracles.finalize();

    ScheduleResult result;
    result.violations = oracles.violations();
    result.checks = oracles.checks();
    result.events = oracles.events_seen();
    for (const auto& c : clients) result.completed += c->completed();
    result.state_transfers = recorder.metrics().counter_sum("bft.state_transfers");

    // The cluster outlives the run loop but not the recorder/oracles scope:
    // detach the listener so teardown cannot call into a dying suite.
    recorder.set_listener({});
    return result;
}

std::vector<Perturbation> shrink_schedule(const ExploreScenario& scenario, std::uint64_t seed,
                                          std::vector<Perturbation> perturbations,
                                          OracleId target, std::uint64_t* runs) {
    const auto count_run = [&runs] {
        if (runs) ++*runs;
    };

    // ddmin-style delta debugging over the perturbation set: repeatedly try
    // to delete chunks; halve the chunk size when nothing can be removed.
    std::size_t chunk = std::max<std::size_t>(perturbations.size() / 2, 1);
    while (!perturbations.empty()) {
        bool removed = false;
        for (std::size_t start = 0; start < perturbations.size();) {
            std::vector<Perturbation> candidate;
            candidate.reserve(perturbations.size());
            const std::size_t stop = std::min(start + chunk, perturbations.size());
            for (std::size_t i = 0; i < perturbations.size(); ++i) {
                if (i < start || i >= stop) candidate.push_back(perturbations[i]);
            }
            count_run();
            if (trips(run_schedule(scenario, seed, candidate), target)) {
                perturbations = std::move(candidate);
                removed = true;
                // Keep scanning from the same offset: the chunk there is new.
            } else {
                start = stop;
            }
        }
        if (!removed) {
            if (chunk == 1) break;
            chunk = std::max<std::size_t>(chunk / 2, 1);
        } else {
            chunk = std::max<std::size_t>(
                std::min(chunk, std::max<std::size_t>(perturbations.size() / 2, 1)), 1);
        }
    }
    return perturbations;
}

ExploreOutcome explore(const ExploreScenario& scenario, std::uint64_t first_seed,
                       std::uint32_t num_seeds, unsigned jobs) {
    // Phase 1 — the embarrassingly parallel part: each seed's schedule is an
    // independent deterministic simulation (own cluster, recorder, oracles),
    // so seeds dispatch through the worker pool.  Results land in seed order
    // regardless of completion order, so the aggregate below — and which
    // violation gets shrunk — is identical at any job count.
    std::vector<std::vector<Perturbation>> perturbation_sets(num_seeds);
    std::vector<ScheduleResult> results(num_seeds);
    exp::parallel_for(num_seeds, jobs, [&](std::size_t i) {
        const std::uint64_t seed = first_seed + i;
        perturbation_sets[i] = sample_perturbations(scenario, seed);
        results[i] = run_schedule(scenario, seed, perturbation_sets[i]);
    });

    // Phase 2 — serial aggregation + first-violation shrink (ddmin is an
    // inherently sequential bisection; violations are rare so this is cold).
    ExploreOutcome out;
    for (std::uint32_t i = 0; i < num_seeds; ++i) {
        const std::uint64_t seed = first_seed + i;
        const std::vector<Perturbation>& perturbations = perturbation_sets[i];
        const ScheduleResult& result = results[i];
        ++out.seeds_run;
        for (std::size_t o = 0; o < kOracleCount; ++o) out.checks[o] += result.checks[o];
        out.events += result.events;
        out.completed += result.completed;
        out.state_transfers += result.state_transfers;
        if (result.violations.empty()) continue;
        ++out.seeds_violating;
        if (out.artifact.has_value()) continue;

        const OracleId target = result.violations.front().oracle;
        const std::vector<Perturbation> minimal =
            shrink_schedule(scenario, seed, perturbations, target, &out.shrink_runs);
        const ScheduleResult confirm = run_schedule(scenario, seed, minimal);

        ViolationArtifact artifact;
        artifact.scenario = scenario;
        artifact.seed = seed;
        artifact.oracle = target;
        artifact.schedule = minimal;
        for (const Violation& v : confirm.violations) {
            if (v.oracle == target) {
                artifact.detail = v.detail;
                break;
            }
        }
        if (artifact.detail.empty()) artifact.detail = result.violations.front().detail;
        out.artifact = std::move(artifact);
    }
    return out;
}

}  // namespace rbft::check
