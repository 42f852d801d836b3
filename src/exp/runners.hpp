// Scenario runners: one call = one experiment (a cluster, a workload, an
// optional attack, a measurement).  The bench binaries that regenerate the
// paper's tables and figures are thin loops over these.
//
// Throughput capacities are estimated by a calibrated linear cost model
// (per-request seconds = a + b * payload_bytes + exec_cost) fitted to probe
// measurements at 8 B and 4 kB; "saturated" workloads run at a fraction of
// that capacity just below the knee, mirroring the paper's saturated static
// load (§VI-A).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bft/execution.hpp"
#include "common/time.hpp"
#include "exp/harness.hpp"
#include "obs/recorder.hpp"
#include "rbft/cluster.hpp"

namespace rbft::exp {

enum class LoadShape { kStatic, kDynamic };
enum class Protocol { kRbftTcp, kRbftUdp, kAardvark, kSpinning, kPrime };

/// Calibrated per-request service time at the bottleneck (seconds).
[[nodiscard]] double service_time(Protocol protocol, std::size_t payload_bytes,
                                  Duration exec_cost = {});

/// Estimated peak throughput (req/s).
[[nodiscard]] double capacity(Protocol protocol, std::size_t payload_bytes,
                              Duration exec_cost = {});

/// Offered rate for a "saturated" run: a fraction of capacity just below
/// the knee.
[[nodiscard]] double saturated_rate(Protocol protocol, std::size_t payload_bytes,
                                    Duration exec_cost = {});

// ---------------------------------------------------------------------------

struct ScenarioOutput {
    RunResult result;
    std::uint64_t instance_changes = 0;  // RBFT: total across nodes
    std::uint64_t view_changes = 0;      // baselines: total view changes started
    /// Per correct node: mean (master, backup) kreq/s measured by the
    /// node's monitoring module over the measurement window (Figs. 9 / 11).
    std::vector<std::pair<double, double>> node_throughputs;
    /// RBFT: per node, the per-request state left when the run ends after
    /// its drain (a read-out only; nothing here is exported).
    std::vector<core::StateSizes> node_state;
    /// RBFT: requests the clients sent that had not completed by the end.
    std::uint64_t requests_outstanding = 0;
    /// The observability sink of the run (scenario-supplied, or created by
    /// the runner): all metrics and — when tracing was enabled — the full
    /// protocol trace of the experiment.
    std::shared_ptr<obs::Recorder> recorder;
};

/// Allocator knob every scenario carries (default = production hot path).
/// The equivalence rig flips it and asserts byte-identical
/// metrics/trace/profile exports.
struct RuntimeKnobs {
    bool pooled_messages = true;
};

struct RbftScenario {
    std::uint32_t f = 1;
    bool use_udp = false;
    RuntimeKnobs runtime{};
    bool order_full_requests = false;
    std::size_t payload_bytes = 8;
    Duration exec_cost{};
    LoadShape load = LoadShape::kStatic;
    /// 0 = saturated (static) or capacity-derived per-client rate (dynamic).
    double rate = 0.0;
    enum class Attack { kNone, kWorst1, kWorst2 } attack = Attack::kNone;
    /// Ordering→execution backend (copied into the cluster config;
    /// master-only = the paper's RBFT).
    bft::ExecutionBackend backend = bft::ExecutionBackend::kMasterOnly;
    std::uint64_t seed = 42;
    std::uint32_t clients = 20;
    double delta = 0.97;  // Δ (ablation knob)
    std::uint32_t instances_override = 0;  // 0 = f+1 (ablation knob)
    Duration warmup = seconds(1.0);
    Duration measure = seconds(2.0);
    /// Observability sink to attach; null = the runner creates its own.
    /// Tracing is enabled automatically when RBFT_OBS_DIR is set, and the
    /// runner exports metrics.json/trace.json there after the run.
    std::shared_ptr<obs::Recorder> recorder;
};

[[nodiscard]] ScenarioOutput run_rbft(const RbftScenario& scenario);

struct BaselineScenario {
    Protocol protocol = Protocol::kAardvark;  // kAardvark | kSpinning | kPrime
    RuntimeKnobs runtime{};
    std::size_t payload_bytes = 8;
    Duration exec_cost{};
    LoadShape load = LoadShape::kStatic;
    double rate = 0.0;  // 0 = saturated
    bool attack = false;
    /// Prime attack: the faulty client's heavy-request execution cost/rate.
    Duration heavy_exec = milliseconds(1.0);
    double heavy_rate = 700.0;
    std::uint64_t seed = 42;
    std::uint32_t clients = 20;
    Duration warmup = seconds(1.0);
    Duration measure = seconds(2.0);
    /// Aardvark: number of honest-primary views to bootstrap expectation
    /// history before the malicious node's turn (static-load attack).
    bool aardvark_fast_schedule = true;
    /// Observability sink to attach; null = the runner creates its own.
    /// Tracing is enabled automatically when RBFT_OBS_DIR is set, and the
    /// runner exports metrics.json/trace.json there after the run.
    std::shared_ptr<obs::Recorder> recorder;
};

[[nodiscard]] ScenarioOutput run_baseline(const BaselineScenario& scenario);

/// Relative throughput (%): attacked vs fault-free with identical workload.
[[nodiscard]] inline double relative_percent(const ScenarioOutput& attacked,
                                             const ScenarioOutput& fault_free) {
    if (fault_free.result.kreq_s <= 0.0) return 0.0;
    return 100.0 * attacked.result.kreq_s / fault_free.result.kreq_s;
}

/// Exports `recorder` to $RBFT_OBS_DIR when it is set; the runners call it
/// after every run, and the last run of a binary wins.  A failed export is
/// reported on stderr once and makes export_failed() true for good.
void maybe_export(const obs::Recorder& recorder);
[[nodiscard]] bool export_failed();

/// The dynamic workload used throughout (§VI-A): ramp 1..10 clients, spike
/// to 50, ramp down, with `per_client_rate` derived from the saturation
/// rate so the spike saturates the system.
[[nodiscard]] workload::LoadSpec dynamic_spec(double saturation_rate, Duration stage);

}  // namespace rbft::exp
