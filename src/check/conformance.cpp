#include "check/conformance.hpp"

#include <algorithm>
#include <memory>

#include "attacks/attacks.hpp"
#include "protocols/clusters.hpp"
#include "protocols/registry.hpp"
#include "rbft/cluster.hpp"
#include "sim/simulator.hpp"
#include "workload/client.hpp"

namespace rbft::check {

namespace {

/// Drives one protocol cluster with the scenario's closed-loop workload:
/// each client sends sequentially until it completed its quota.  Works for
/// any cluster exposing simulator()/network()/keys().
template <typename ClusterT>
ProtocolExecution drive(ClusterT& cluster, const ConformanceScenario& scenario,
                        std::string name) {
    ProtocolExecution run;
    run.protocol = std::move(name);

    sim::Simulator& sim = cluster.simulator();
    const std::uint32_t n = cluster_size(scenario.f);

    workload::ClientBehavior behavior;
    behavior.payload_bytes = scenario.payload_bytes;
    std::vector<std::unique_ptr<workload::ClientEndpoint>> clients;
    clients.reserve(scenario.clients);
    for (std::uint32_t c = 0; c < scenario.clients; ++c) {
        clients.push_back(std::make_unique<workload::ClientEndpoint>(
            ClientId{c}, sim, cluster.network(), cluster.keys(), n, scenario.f, behavior));
    }

    std::vector<std::uint32_t> done(scenario.clients, 0);
    for (std::uint32_t c = 0; c < scenario.clients; ++c) {
        workload::ClientEndpoint* client = clients[c].get();
        client->set_completion_callback(
            [&run, &done, &sim, client, c, scenario](RequestId rid, Duration) {
                run.executed.emplace(c, raw(rid));
                if (++done[c] < scenario.requests_per_client) {
                    sim.schedule_after(scenario.think_time, [client] { client->send_one(); });
                }
            });
    }
    // Stagger initial sends so same-time events do not all hit one node.
    std::int64_t stagger = 0;
    for (auto& c : clients) {
        workload::ClientEndpoint* client = c.get();
        sim.schedule_at(TimePoint{stagger}, [client] { client->send_one(); });
        stagger += 10'000;
    }

    sim.run_until(TimePoint{} + scenario.time_limit);

    for (const auto& c : clients) run.completed += c->completed();
    run.all_completed = run.completed ==
                        static_cast<std::uint64_t>(scenario.clients) * scenario.requests_per_client;
    return run;
}

}  // namespace

namespace {

ProtocolExecution run_contender(const protocols::ProtocolEntry& entry,
                                const ConformanceScenario& scenario) {
    switch (entry.family) {
        case protocols::Family::kRbft: {
            core::ClusterConfig cfg;
            cfg.f = scenario.f;
            cfg.seed = scenario.seed;
            cfg.engine_test_faults.equivocate_mask = scenario.equivocate_mask;
            cfg.backend = entry.backend;
            core::Cluster cluster(cfg);
            std::unique_ptr<attacks::MasterDegradation> degrade;
            if (scenario.master_degradation) {
                degrade = std::make_unique<attacks::MasterDegradation>(cluster);
                degrade->install();
            }
            cluster.start();
            return drive(cluster, scenario, entry.name);
        }
        case protocols::Family::kAardvark: {
            protocols::AardvarkCluster cluster(scenario.f, scenario.seed, {},
                                               protocols::default_channel_aardvark());
            cluster.start();
            return drive(cluster, scenario, entry.name);
        }
        case protocols::Family::kSpinning: {
            protocols::SpinningCluster cluster(scenario.f, scenario.seed, {},
                                               protocols::default_channel_spinning());
            cluster.start();
            return drive(cluster, scenario, entry.name);
        }
        case protocols::Family::kPrime: {
            protocols::PrimeCluster cluster(scenario.f, scenario.seed, {},
                                            protocols::default_channel_prime());
            cluster.start();
            return drive(cluster, scenario, entry.name);
        }
    }
    return {};
}

}  // namespace

ConformanceResult run_conformance(const ConformanceScenario& scenario) {
    ConformanceResult result;

    for (const protocols::ProtocolEntry& entry : protocols::protocol_registry()) {
        if (!scenario.contenders.empty() &&
            std::find(scenario.contenders.begin(), scenario.contenders.end(), entry.name) ==
                scenario.contenders.end()) {
            continue;
        }
        // Attack knobs only exist for the RBFT family; the baselines would
        // run fault-free and (correctly) diverge on timing, so they sit out.
        if (scenario.attacked() && !entry.rbft_family()) continue;
        result.runs.push_back(run_contender(entry, scenario));
    }

    result.all_completed = !result.runs.empty();
    result.sets_match = !result.runs.empty();
    for (const ProtocolExecution& run : result.runs) {
        if (!run.all_completed) result.all_completed = false;
        if (run.executed != result.runs.front().executed) result.sets_match = false;
    }
    return result;
}

}  // namespace rbft::check
