// Execution-backend comparison on the Figure 7 workload: master-only RBFT
// (the paper's protocol) vs parallel-leader merged execution vs hBFT-style
// speculative execution, f = 1, 8 B requests, fault-free.
//
// Three offered loads per backend: two below the master-only knee (60% and
// 90% of calibrated capacity, where latency is the interesting number) and
// one past it (160%, where completed throughput is).  Merged execution
// shards request verification across merge_width(f) lanes and consumes all
// f+1 committed orders, so at the over-saturated point it completes the
// offered load while master-only's single verification lane cannot; the two
// loadpct:160 rows show both numbers.  tests/test_backends.cpp
// (Backends.MergedKeepsUpPastTheMasterOnlyKnee) asserts the merged side.
#include "bench_util.hpp"

namespace rbft::bench {
namespace {

constexpr bft::ExecutionBackend kBackends[] = {bft::ExecutionBackend::kMasterOnly,
                                               bft::ExecutionBackend::kMerged,
                                               bft::ExecutionBackend::kSpeculative};

/// Load fractions of master-only capacity (percent); 160 over-saturates
/// the single verification lane.
constexpr int kLoadPct[] = {60, 90, 160};

exp::RbftScenario scenario_for(bft::ExecutionBackend backend, int load_pct) {
    exp::RbftScenario s;
    s.backend = backend;
    s.payload_bytes = 8;
    s.rate = load_pct / 100.0 * exp::capacity(exp::Protocol::kRbftTcp, 8) * 0.95;
    s.warmup = seconds(0.6);
    s.measure = seconds(1.4);
    return s;
}

void add_backend_point(Harness& harness, bft::ExecutionBackend backend, int load_pct) {
    exp::RunSpec spec;
    spec.label = "fault-free";
    spec.scenario = scenario_for(backend, load_pct);

    char name[80];
    std::snprintf(name, sizeof(name), "Backends/point/backend:%s/loadpct:%d",
                  bft::backend_name(backend), load_pct);
    char label[96];
    std::snprintf(label, sizeof(label), "Fig7 %-11s offered=%3d%%",
                  bft::backend_name(backend), load_pct);
    harness.add_point(name, {spec},
                      [label = std::string(label)](const std::vector<exp::RunOutput>& outs) {
                          const exp::RunResult& result = outs[0].scenario.result;
                          PointOutcome outcome;
                          outcome.counters = {{"kreq_s", result.kreq_s},
                                              {"mean_ms", result.mean_latency_ms},
                                              {"p99_ms", result.p99_ms}};
                          outcome.rows = {{label,
                                           {{"kreq_s", result.kreq_s},
                                            {"mean_ms", result.mean_latency_ms},
                                            {"p99_ms", result.p99_ms}}}};
                          return outcome;
                      });
}

void register_points(Harness& harness) {
    for (bft::ExecutionBackend backend : kBackends) {
        for (int load_pct : kLoadPct) add_backend_point(harness, backend, load_pct);
    }
}

}  // namespace
}  // namespace rbft::bench

RBFT_BENCH_MAIN("backends", "Execution backends on the Fig. 7 workload, fault-free, f=1")
