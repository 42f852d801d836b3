// Shared scaffold for the baseline protocols (Aardvark, Spinning).
//
// Both are PBFT-descendant, single-replica-per-node protocols whose
// implementations run the whole protocol in one event loop — which is why
// the paper finds RBFT (modules and replicas spread over cores) faster on
// identical hardware (§VI-B).  We model that by pinning everything the
// baseline node does to core 0.
//
// The scaffold handles: client request verification (signatures for
// Aardvark, MAC-only for Spinning), submission to a single InstanceEngine,
// execution of ordered batches, reply caching/resending and client
// blacklisting.  Subclasses add their robustness policy (regular view
// changes + heartbeats for Aardvark; per-batch rotation + Stimeout and
// blacklisting for Spinning).
#pragma once

#include <memory>

#include "bft/engine.hpp"
#include "bft/messages.hpp"
#include "common/det.hpp"
#include "common/logging.hpp"
#include "common/request_key_set.hpp"
#include "common/timeseries.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/flood.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/recorder.hpp"
#include "rbft/node.hpp"
#include "rbft/service.hpp"
#include "sim/cpu.hpp"
#include "sim/timer.hpp"

namespace rbft::protocols {

struct BaselineConfig {
    NodeId id{};
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    void assign_topology(NodeId node, std::uint32_t n_, std::uint32_t f_) noexcept {
        id = node;
        n = n_;
        f = f_;
    }
    /// Aardvark verifies client signatures; Spinning is MAC-only (§VI-B).
    bool verify_client_signatures = true;
    std::uint32_t batch_max = 64;
    std::uint64_t batch_max_bytes = 0;
    Duration batch_delay = milliseconds(1.0);
    bool order_full_requests = true;  // these protocols order whole requests
    bool rotating_primary = false;
    std::uint64_t checkpoint_interval = 128;
    /// Metrics registry and flight recorder; required, and must outlive the
    /// node (ProtocolCluster supplies its own when the template has none).
    obs::Recorder* recorder = nullptr;
    /// Per-run logger threaded to sim::Simulator::set_logger() (must outlive
    /// the cluster); null = logging disabled.
    Logger* logger = nullptr;
    /// Message pool (null = plain make_shared); must outlive the node.
    net::MessagePool* message_pool = nullptr;
    /// Bounded client queues (Aardvark §III-B: fair scheduling between
    /// client and replica traffic): client requests are shed when the event
    /// loop is this far behind, so protocol messages keep bounded delay.
    Duration max_client_queue_delay = milliseconds(20.0);
};

class BaselineNode : public bft::EngineHost {
public:
    BaselineNode(BaselineConfig config, sim::Simulator& simulator, net::Fabric& network,
                 const crypto::KeyStore& keys, const crypto::CostModel& costs,
                 std::unique_ptr<core::Service> service);
    ~BaselineNode() override = default;

    void on_message(net::Address from, const net::MessagePtr& m);

    // -- EngineHost ----------------------------------------------------------
    void engine_send(InstanceId instance, NodeId dest, net::MessagePtr m) override;
    void engine_ordered(const bft::OrderedBatch& batch) override;
    bool engine_request_cleared(const bft::RequestRef&) override { return true; }
    void engine_view_installed(InstanceId, ViewId view) override;

    [[nodiscard]] bft::InstanceEngine& engine() noexcept { return *engine_; }
    [[nodiscard]] const BaselineConfig& config() const noexcept { return config_; }
    /// Per-request state sizes, in the shape core::Node reports them: every
    /// known request holds its body until it executes.
    [[nodiscard]] core::StateSizes state_sizes() const;
    [[nodiscard]] sim::CpuCore& core() noexcept { return cpu_.core(0); }
    [[nodiscard]] std::uint64_t take_ordered_window() noexcept { return ordered_window_.take(); }
    [[nodiscard]] std::uint64_t take_offered_window() noexcept { return offered_window_.take(); }

    void set_faulty(bool faulty) noexcept {
        faulty_ = faulty;
        engine_->set_silent(faulty);
    }
    [[nodiscard]] bool faulty() const noexcept { return faulty_; }

    /// Subclass entry point: start timers/monitors.
    virtual void start() {}

protected:
    /// Hook: a request passed verification and is about to be submitted.
    virtual void on_request_verified(const std::shared_ptr<const bft::RequestMsg>& req);
    /// Hook: a batch from the engine was executed.
    virtual void on_batch_executed(const bft::OrderedBatch& batch);

    void execute_request(const bft::RequestRef& ref);

    BaselineConfig config_;
    sim::Simulator& simulator_;
    net::Fabric& network_;
    const crypto::KeyStore& keys_;
    const crypto::CostModel& costs_;
    std::unique_ptr<core::Service> service_;
    sim::NodeCpu cpu_;  // single core: everything serializes through core 0
    std::unique_ptr<bft::InstanceEngine> engine_;

    // Verified bodies of requests not yet executed; execution erases the
    // entry and executed_ answers for the request from then on.
    det::map<RequestKey, std::shared_ptr<const bft::RequestMsg>> known_requests_;
    RequestKeySet executed_;
    det::map<ClientId, std::pair<RequestId, bft::ReplyMsg>> last_reply_;
    det::set<ClientId> blacklisted_clients_;

    WindowCounter ordered_window_;
    WindowCounter offered_window_;  // verified client requests (load signal)
    bool faulty_ = false;

    // Registry handles, resolved once in the constructor (profiler_ may be null).
    obs::Recorder* recorder_;
    obs::prof::Profiler* profiler_ = nullptr;
    obs::Counter* ctr_requests_verified_ = nullptr;
    obs::Counter* ctr_requests_invalid_ = nullptr;
    obs::Counter* ctr_requests_shed_ = nullptr;
    obs::Counter* ctr_requests_executed_ = nullptr;
    obs::Counter* ctr_view_changes_ = nullptr;
};

}  // namespace rbft::protocols
