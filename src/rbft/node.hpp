// The RBFT node: one physical machine running f+1 protocol-instance
// replicas plus the Verification, Propagation, Dispatch & Monitoring and
// Execution modules (paper Fig. 6).
//
// Request life cycle (paper §IV-B, numbering as in Fig. 5):
//  1. REQUEST arrives on the client NIC; the Verification module checks the
//     MAC authenticator entry, then the client signature (blacklisting the
//     client on a bad signature), and short-circuits re-execution by
//     resending the cached reply.
//  2. The Propagation module forwards the request in a PROPAGATE to every
//     other node; once f+1 PROPAGATEs (counting our own) are in, the
//     request is *cleared* and handed to the Dispatch module.
//  3-5. Dispatch stamps the request and submits its identifier to each of
//     the f+1 local InstanceEngines, which run three-phase ordering.
//  6. Ordered batches come back per instance; master-instance batches go to
//     the Execution module, which executes and replies to the client.
//
// Monitoring (§IV-C): per instance, a window counter of ordered requests is
// read every `period`; if throughput(master)/mean(throughput(backups)) < Δ
// the node votes INSTANCE_CHANGE.  Latency monitoring enforces Λ (absolute
// per-request bound on the master) and Ω (max gap between a client's mean
// latency on the master vs the backups).
//
// Instance change (§IV-D): on 2f+1 INSTANCE_CHANGE votes for the current
// cpi, every local engine view-changes, moving every primary to the next
// node; at most one primary per node is preserved by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "bft/engine.hpp"
#include "bft/execution.hpp"
#include "bft/messages.hpp"
#include "common/det.hpp"
#include "common/histogram.hpp"
#include "common/request_key_set.hpp"
#include "common/timeseries.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/flood.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/recorder.hpp"
#include "rbft/messages.hpp"
#include "rbft/service.hpp"
#include "sim/cpu.hpp"
#include "sim/timer.hpp"

namespace rbft::core {

struct MonitoringConfig {
    /// Monitoring period (throughput windows, §IV-C).
    Duration period = milliseconds(100.0);
    /// Δ: minimum acceptable ratio master-throughput / mean backup
    /// throughput.  Close to 1 because instances run on identical machines
    /// and order identical request streams (see DESIGN.md §5).
    double delta = 0.97;
    /// Λ: maximal acceptable latency for any master-ordered request.
    Duration lambda = seconds(10.0);
    /// Ω: maximal acceptable difference between a client's average latency
    /// on the master instance and on the backup instances.
    Duration omega = seconds(10.0);
    /// Windows with fewer master+backup requests than this are not judged
    /// (prevents false positives at startup / idle).
    std::uint64_t min_window_requests = 20;
    /// Ticks skipped after an instance change (state resettles).
    std::uint32_t grace_ticks = 2;
    /// Consecutive below-Δ windows required before voting (smooths out
    /// single-window batching noise).
    std::uint32_t consecutive_bad_windows = 2;
};

struct FloodDefenseConfig {
    /// Invalid messages from one peer within one monitoring period that
    /// trigger closing that peer's NIC.
    std::uint64_t invalid_threshold = 16;
    /// How long the NIC stays closed (§V: gives the faulty node time to
    /// restart or get repaired).
    Duration close_duration = seconds(2.0);
};

struct NodeConfig {
    NodeId id{};
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint32_t cores = 8;

    /// Ordering-engine knobs, shared by all local instances.
    std::uint32_t batch_max = 64;
    Duration batch_delay = milliseconds(1.0);
    bool order_full_requests = false;  // §VI-B ablation
    std::uint64_t checkpoint_interval = 128;
    /// Engine stall retry (see EngineConfig::retry_interval); zero keeps
    /// the seed behavior.  Enable for runs with partitions or crashes.
    Duration engine_retry_interval{};

    MonitoringConfig monitoring{};
    FloodDefenseConfig flood_defense{};

    /// Metrics registry and flight recorder; required (every protocol event is counted there).
    obs::Recorder* recorder = nullptr;

    /// Message pool for every message this node (and its engines) builds;
    /// null = plain make_shared.  Confined to this node's simulation thread.
    net::MessagePool* message_pool = nullptr;

    /// Number of protocol instances; 0 = the paper's f+1 (necessary and
    /// sufficient per the companion TR).  Overridable for the ablation
    /// bench (e.g. 2f+1 instances).
    std::uint32_t instances_override = 0;

    /// Planted engine faults for oracle tests (defaults = correct engines).
    bft::EngineTestFaults engine_test_faults{};

    /// Ordering→execution backend: master-only (the paper's) or merged
    /// (see bft/execution.hpp).  It also sets the client-facing pipeline
    /// lanes (effective_lanes()).
    bft::ExecutionBackend backend = bft::ExecutionBackend::kMasterOnly;

    [[nodiscard]] std::uint32_t instance_count() const noexcept {
        return instances_override > 0 ? instances_override : redundant_instances(f);
    }

    /// Client-facing pipeline lanes: the Verification and Propagation
    /// modules are sharded across this many (verification, propagation)
    /// core pairs, keyed on the request digest.  Master-only keeps the
    /// paper's single lane; merged execution asks for merge_width(f) lanes
    /// to move the client-facing bottleneck off one core, mirroring how
    /// parallel-leader designs (RCC/FnF) spread leader-side work.  Lane 0
    /// uses the classic cores; extra lanes use one core pair each carved
    /// from the cores above the replicas, clamped to what the CPU has free.
    [[nodiscard]] std::uint32_t effective_lanes() const noexcept {
        const std::uint32_t first_free = 4 + instance_count();  // kFirstReplicaCore
        const std::uint32_t spare = cores > first_free ? (cores - first_free) / 2 : 0;
        const std::uint32_t want = backend == bft::ExecutionBackend::kMerged ? merge_width(f) : 1;
        return want > 1 + spare ? 1 + spare : want;
    }
};

/// Sizes of the node's per-request state (a read-out for tests and soak
/// runs; nothing is exported).  DESIGN.md lists when each entry is created
/// and when it is released.
struct StateSizes {
    /// Entries in the request table: requests still in flight.  An entry
    /// is erased once the request is dispatched, executed and delivered by
    /// every local instance; the executed key set then answers for it.
    std::size_t requests = 0;
    /// Entries that still hold a request body (adopted, and not yet both
    /// dispatched and executed).
    std::size_t retained_bodies = 0;
    /// Executed keys stored individually above their client's floor.
    std::size_t executed_tail = 0;
    /// Per instance: ordered keys stored individually above the floors.
    std::vector<std::size_t> ordered_tail;
    /// Per instance: PRE-PREPAREs held until they can be accepted.
    std::vector<std::size_t> held_preprepares;
};

class Node final : public bft::EngineHost {
public:
    /// Why a node voted INSTANCE_CHANGE (recorded in the trace).
    enum class IcReason : std::uint64_t {
        kThroughput = 0,
        kLambda = 1,
        kOmega = 2,
        kJoin = 3,
        /// No code votes this any more.  The value stays reserved because
        /// perfbench's fault-free check still reads its tally.
        kSpeculation = 4,
    };

    Node(NodeConfig config, sim::Simulator& simulator, net::Fabric& network,
         const crypto::KeyStore& keys, const crypto::CostModel& costs,
         std::unique_ptr<Service> service);

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /// Network delivery entry point (registered with the net::Fabric).
    void on_message(net::Address from, const net::MessagePtr& m);

    // -- EngineHost ----------------------------------------------------------
    void engine_send(InstanceId instance, NodeId dest, net::MessagePtr m) override;
    void engine_ordered(const bft::OrderedBatch& batch) override;
    bool engine_request_cleared(const bft::RequestRef& ref) override;
    void engine_view_installed(InstanceId instance, ViewId view) override;
    [[nodiscard]] std::uint64_t host_cpi() const override { return cpi_; }

    // -- Introspection / control ---------------------------------------------
    [[nodiscard]] const NodeConfig& config() const noexcept { return config_; }
    [[nodiscard]] StateSizes state_sizes() const;
    [[nodiscard]] bft::InstanceEngine& engine(InstanceId i) { return *engines_.at(raw(i)); }
    [[nodiscard]] std::uint32_t instance_count() const noexcept {
        return static_cast<std::uint32_t>(engines_.size());
    }
    /// The master instance is instance 0 (its *primary* moves on instance
    /// changes; the instance itself is fixed, §IV-A).
    [[nodiscard]] static constexpr InstanceId master_instance() noexcept { return InstanceId{0}; }

    [[nodiscard]] std::uint64_t cpi() const noexcept { return cpi_; }

    /// Client-facing pipeline lanes actually in use (≥ 1).
    [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }

    /// Makes this node Byzantine: replicas abstain, modules stop serving.
    /// (Faulty traffic itself is generated by src/attacks.)
    void set_faulty(bool faulty) noexcept {
        faulty_ = faulty;
        for (auto& engine : engines_) engine->set_silent(faulty);
    }
    [[nodiscard]] bool faulty() const noexcept { return faulty_; }

    /// Disables this node's monitoring votes without silencing its modules
    /// (worst-attack-2: the faulty node keeps running the master primary
    /// but never votes or reports honestly).
    void set_monitoring_enabled(bool enabled) noexcept { monitoring_enabled_ = enabled; }

    /// Crash-stops the node: all modules and replicas fall silent and every
    /// incoming message is ignored.  Volatile protocol state is considered
    /// lost (it is wiped on restart); use Cluster::crash_node to also sever
    /// the node at the fabric.
    void crash();

    /// Brings a crashed node back with fresh replicas and empty volatile
    /// state.  The node rejoins by adopting the quorum's checkpoint (state
    /// transfer in InstanceEngine::advance_stable), view (f+1 matching
    /// checkpoint piggybacks) and cpi (f+1 matching reports or a quorum of
    /// INSTANCE_CHANGE votes).
    void restart();
    [[nodiscard]] bool crashed() const noexcept { return crashed_; }
    [[nodiscard]] bool recovering() const noexcept { return recovering_; }

    /// Master-instance delivery log: (seq, batch fingerprint) per delivered
    /// batch, in local delivery order, persisted across restarts.  Safety
    /// invariant: any two correct nodes agree on the fingerprint of every
    /// seq they both delivered.
    [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>& commit_log()
        const noexcept {
        return commit_log_;
    }

    /// Starts periodic monitoring (call once after wiring the cluster).
    void start();

    [[nodiscard]] sim::NodeCpu& cpu() noexcept { return cpu_; }

    // Core pinning (Fig. 6): modules are threads, replicas are processes.
    static constexpr std::uint32_t kVerificationCore = 0;
    static constexpr std::uint32_t kPropagationCore = 1;
    static constexpr std::uint32_t kDispatchCore = 2;
    static constexpr std::uint32_t kExecutionCore = 3;
    static constexpr std::uint32_t kFirstReplicaCore = 4;

private:
    struct RequestState {
        /// The verified body.  Released once the request is both dispatched
        /// and executed (release_finished): past that point only the flags
        /// are consulted.
        std::shared_ptr<const bft::RequestMsg> request;
        /// Nodes whose PROPAGATE (or our own) vouched for the request, as a
        /// bitmask over NodeId (n <= kMaxNodes).
        std::uint64_t propagated_by = 0;
        /// Local instances that delivered the request, as a bitmask over
        /// InstanceId.  Only an instance's first delivery is sampled for
        /// latency monitoring, and the entry retires once every bit is set.
        std::uint64_t ordered_by = 0;
        /// The body passed signature verification and was stored here.
        bool adopted = false;
        /// A signature verification for this request is queued or running;
        /// duplicate copies (direct or propagated) must not re-verify.
        bool verifying = false;
        /// The body hash was already computed on this node (e.g. during a
        /// failed MAC check); later signature checks reuse it.
        bool digest_computed = false;
        bool self_propagated = false;
        bool cleared = false;
        bool dispatched = false;
        bool executed = false;
        TimePoint dispatch_time{};
    };

    struct ClientLatencyStats {
        // Cumulative mean ordering latency per instance (seconds).
        std::vector<double> sum;
        std::vector<std::uint64_t> count;
    };

    // Module handlers.  Each runs on its pinned core after charging cost.
    void verification_receive(net::Address from, std::shared_ptr<const bft::RequestMsg> req);
    void propagation_receive(NodeId from, std::shared_ptr<const PropagateMsg> msg);
    void propagation_self(const std::shared_ptr<const bft::RequestMsg>& req,
                          bool re_offer = false);
    void maybe_clear(const RequestKey& key);
    void dispatch(const RequestKey& key);
    /// Drops what a request no longer needs once it is dispatched and
    /// executed: its body, and its whole entry (retirement) once every local
    /// instance has delivered it too.
    void release_finished(const RequestKey& key);
    /// The request's entry, created if absent; null if the request was
    /// retired (no entry, and executed_ holds its key).
    RequestState* live_entry(const RequestKey& key);
    void execute(const bft::RequestRef& ref);
    /// Rebuilds the merged backend's merge (empty under master-only).
    void reset_merge();
    void send_reply(ClientId client, const bft::ReplyMsg& reply);

    // Monitoring.
    void monitoring_tick();
    void latency_check(InstanceId instance, const bft::RequestRef& ref, Duration latency);
    void vote_instance_change(IcReason reason);
    void handle_instance_change(NodeId from, const InstanceChangeMsg& m);
    void perform_instance_change();
    void reset_monitoring_state();

    // Flood defense.
    void count_invalid(net::Address from);

    // Crash/recovery internals.
    void make_engines(bool recovering);
    void note_peer_cpi(NodeId from, std::uint64_t peer_cpi);

    [[nodiscard]] sim::CpuCore& replica_core(InstanceId i) {
        return cpu_.core(kFirstReplicaCore + raw(i));
    }

    // Pipeline-lane sharding of the client-facing modules.  Lane 0 keeps the
    // classic Verification/Propagation cores; every extra lane gets a
    // (verification, propagation) core pair above the replica cores.  With
    // lanes_ == 1 every request maps to lane 0 and the layout is
    // byte-identical to the seed.
    [[nodiscard]] std::uint32_t lane_of(const Digest& digest) const noexcept {
        return lanes_ <= 1 ? 0 : digest.bytes[0] % lanes_;
    }
    [[nodiscard]] sim::CpuCore& verification_core(std::uint32_t lane) {
        return lane == 0 ? cpu_.core(kVerificationCore)
                         : cpu_.core(kFirstReplicaCore + instance_count() + 2 * (lane - 1));
    }
    [[nodiscard]] sim::CpuCore& propagation_core(std::uint32_t lane) {
        return lane == 0 ? cpu_.core(kPropagationCore)
                         : cpu_.core(kFirstReplicaCore + instance_count() + 2 * (lane - 1) + 1);
    }

    NodeConfig config_;
    sim::Simulator& simulator_;
    net::Fabric& network_;
    const crypto::KeyStore& keys_;
    const crypto::CostModel& costs_;
    std::unique_ptr<Service> service_;
    sim::NodeCpu cpu_;

    // The merged backend's merge (empty under master-only; rebuilt on
    // restart, like the engines) and the clamped client-facing lane count.
    std::optional<bft::DeterministicMerge> merge_;
    std::uint32_t lanes_ = 1;

    std::vector<std::unique_ptr<bft::InstanceEngine>> engines_;
    // Replicas retired by a crash.  They must outlive any simulator/CPU
    // callbacks that captured them, so they are kept (permanently silent)
    // until the node is destroyed.
    std::vector<std::unique_ptr<bft::InstanceEngine>> retired_engines_;

    // In-flight requests only.  A finished request's entry is erased
    // (release_finished); "no entry, key in executed_" is its tombstone.
    // That reading is exact because executed_ gains a key only while the key
    // has an entry, and restart() clears both containers together.
    det::map<RequestKey, RequestState> requests_;
    RequestKeySet executed_;
    det::map<ClientId, std::pair<RequestId, bft::ReplyMsg>> last_reply_;
    det::set<ClientId> blacklisted_clients_;

    // Monitoring state.
    sim::PeriodicTimer monitor_timer_;
    std::vector<WindowCounter> ordered_counters_;     // per instance (nbreqs_i)
    det::map<ClientId, ClientLatencyStats> client_latency_;
    std::uint32_t grace_remaining_ = 0;
    std::uint32_t bad_window_streak_ = 0;
    bool suspicious_ = false;

    // Instance change state.
    TimePoint last_instance_change_{};
    std::uint64_t cpi_ = 0;
    bool voted_current_cpi_ = false;
    std::map<std::uint64_t, std::set<NodeId>> ic_votes_;

    // Flood defense.
    det::map<std::uint64_t, std::uint64_t> invalid_counts_;  // per source

    // Crash/recovery state.
    bool crashed_ = false;
    bool recovering_ = false;
    // Iterated by note_peer_cpi(): must stay deterministic.
    det::map<std::uint32_t, std::uint64_t> peer_cpi_;  // checkpoint piggybacks
    std::vector<std::pair<std::uint64_t, std::uint64_t>> commit_log_;  // (seq, fingerprint)

    bool faulty_ = false;
    bool monitoring_enabled_ = true;

    // Registry handles, resolved once in the constructor (profiler_ may be null).
    obs::Recorder* recorder_;
    obs::prof::Profiler* profiler_ = nullptr;
    obs::Counter* ctr_requests_received_ = nullptr;
    obs::Counter* ctr_requests_verified_ = nullptr;
    obs::Counter* ctr_requests_invalid_mac_ = nullptr;
    obs::Counter* ctr_requests_invalid_sig_ = nullptr;
    obs::Counter* ctr_requests_executed_ = nullptr;
    obs::Counter* ctr_replies_resent_ = nullptr;
    obs::Counter* ctr_propagates_received_ = nullptr;
    obs::Counter* ctr_ic_voted_ = nullptr;
    obs::Counter* ctr_ic_done_ = nullptr;
    obs::Counter* ctr_nic_closures_ = nullptr;
    obs::Counter* ctr_crashes_ = nullptr;
    obs::Counter* ctr_restarts_ = nullptr;
    obs::Counter* ctr_mac_ops_ = nullptr;
    obs::Counter* ctr_sig_verifies_ = nullptr;
    obs::Counter* ctr_crypto_ns_ = nullptr;
    std::vector<Series*> monitor_kreq_series_;  // "monitor.kreq_s", per instance (§IV-C)
};

}  // namespace rbft::core
