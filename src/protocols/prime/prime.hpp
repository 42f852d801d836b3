// Prime (Amir et al., DSN 2008) — as analysed in paper §III-A.
//
// Implemented mechanisms (those Fig. 1 exercises; see DESIGN.md §5 for the
// simplifications):
//  * clients send each request to one replica (round-robin);
//  * replicas aggregate incoming requests into signed PO-REQUESTs broadcast
//    to all; a PO-REQUEST with 2f signed PO-ACKs is *certified*;
//  * the primary broadcasts a signed ORDER message every ordering period
//    (empty if nothing is eligible) carrying a cumulative coverage vector
//    over certified PO-REQUESTs, capped per message (flow control);
//  * replicas execute covered, certified requests in deterministic order
//    (origin-major, sequence-minor) and reply to clients;
//  * replicas measure pairwise RTTs with probe/echo messages (processed on
//    the same core as everything else — so heavy execution inflates them),
//    maintain an EWMA clamped at rtt_clamp, and expect the next ORDER
//    within `order_period + k_lat * rtt`; a primary that misses the bound
//    is suspected, and on 2f+1 signed SUSPECTs the primary rotates.
//
// The §III-A weakness reproduced by bench_fig1: a faulty client submits
// expensive requests (1 ms execution vs 0.1 ms), the single-core event loop
// delays RTT echoes, the monitored bound loosens, and a malicious primary
// spaces its ORDER messages just under the loosened bound — cutting
// throughput (coverage cap / ORDER gap) without being suspected.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bft/messages.hpp"
#include "common/det.hpp"
#include "common/logging.hpp"
#include "common/request_key_set.hpp"
#include "common/timeseries.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/recorder.hpp"
#include "protocols/prime/messages.hpp"
#include "rbft/service.hpp"
#include "sim/cpu.hpp"
#include "sim/timer.hpp"

namespace rbft::protocols::prime {

struct PrimeConfig {
    NodeId id{};
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    void assign_topology(NodeId node, std::uint32_t n_, std::uint32_t f_) noexcept {
        id = node;
        n = n_;
        f = f_;
    }

    /// PO-REQUEST aggregation period.
    Duration po_period = milliseconds(4.0);
    /// Ordering period of a correct primary.
    Duration order_period = milliseconds(15.0);
    /// Max requests newly covered per ORDER message (flow control).
    std::uint32_t max_order_coverage = 192;
    /// RTT probe cadence (per peer).
    Duration rtt_period = milliseconds(50.0);
    /// EWMA weight of a new RTT sample.
    double rtt_alpha = 0.2;
    /// Ceiling on the RTT estimate ("accounts for the variability of the
    /// network latency, set by the developer").
    Duration rtt_clamp = milliseconds(20.0);
    /// K_lat: delay-bound multiplier over the measured RTT.
    double k_lat = 3.0;
    /// Suspicion check cadence.
    Duration check_period = milliseconds(5.0);
    /// Metrics registry and flight recorder; required, and must outlive the
    /// node (ProtocolCluster supplies its own when the template has none).
    obs::Recorder* recorder = nullptr;
    /// Per-run logger threaded to sim::Simulator::set_logger() (must outlive
    /// the cluster); null = logging disabled.
    Logger* logger = nullptr;
    /// Message pool (null = plain make_shared); must outlive the node.
    net::MessagePool* message_pool = nullptr;
};

class PrimeNode {
public:
    PrimeNode(PrimeConfig config, sim::Simulator& simulator, net::Fabric& network,
              const crypto::KeyStore& keys, const crypto::CostModel& costs,
              std::unique_ptr<core::Service> service);

    void on_message(net::Address from, const net::MessagePtr& m);
    void start();

    [[nodiscard]] const PrimeConfig& config() const noexcept { return config_; }
    [[nodiscard]] NodeId current_primary() const noexcept {
        return NodeId{static_cast<std::uint32_t>(rotation_round_ % config_.n)};
    }
    [[nodiscard]] bool is_primary() const noexcept { return current_primary() == config_.id; }

    /// Current ORDER delay bound this replica enforces — what a "smartly
    /// malicious" primary can exploit (Fig. 1's attack reads this).
    [[nodiscard]] Duration order_bound() const noexcept {
        const Duration rtt = rtt_estimate_ < config_.rtt_clamp ? rtt_estimate_ : config_.rtt_clamp;
        return config_.order_period + rtt * config_.k_lat;
    }
    [[nodiscard]] Duration rtt_estimate() const noexcept { return rtt_estimate_; }

    /// Byzantine-primary lever: overrides the ordering period.
    void set_order_gap_override(Duration gap) noexcept { order_gap_override_ = gap; }

    void set_faulty(bool faulty) noexcept { faulty_ = faulty; }
    [[nodiscard]] sim::CpuCore& core() noexcept { return cpu_.core(0); }

private:
    struct PoState {
        std::shared_ptr<const PoRequestMsg> request;
        std::set<NodeId> acks;
        bool certified = false;
    };

    // Client request path.
    void handle_request(std::shared_ptr<const bft::RequestMsg> req);
    void flush_po_buffer();
    void handle_po_request(NodeId from, std::shared_ptr<const PoRequestMsg> msg);
    void handle_po_ack(NodeId from, const PoAckMsg& msg);
    void maybe_certify(const PoId& id);

    // Ordering.
    void order_tick();
    void send_order();
    void handle_order(NodeId from, const PrimeOrderMsg& msg);
    void try_execute();
    void execute_po(const PoRequestMsg& po);

    // Monitoring.
    void rtt_tick();
    void handle_probe(NodeId from, const RttProbeMsg& msg);
    void handle_echo(NodeId from, const RttEchoMsg& msg);
    void check_tick();
    void handle_suspect(NodeId from, const PrimeSuspectMsg& msg);
    void rotate_primary();

    void broadcast(const net::MessagePtr& m);

    PrimeConfig config_;
    sim::Simulator& simulator_;
    net::Fabric& network_;
    const crypto::KeyStore& keys_;
    const crypto::CostModel& costs_;
    std::unique_ptr<core::Service> service_;
    sim::NodeCpu cpu_;  // single event loop

    // PO state.
    std::vector<std::shared_ptr<const bft::RequestMsg>> po_buffer_;
    std::uint64_t my_po_seq_ = 0;
    std::map<PoId, PoState> po_store_;
    RequestKeySet seen_requests_;
    RequestKeySet executed_;

    // Ordering state.
    std::uint64_t order_seq_sent_ = 0;
    TimePoint last_order_sent_{};
    std::vector<std::uint64_t> last_coverage_sent_;
    std::uint64_t last_order_seq_ = 0;
    std::vector<std::uint64_t> exec_target_;    // adopted coverage
    std::vector<std::uint64_t> exec_done_;      // executed through
    std::vector<std::uint64_t> certified_upto_; // contiguous certified per origin
    TimePoint last_order_received_{};

    // Monitoring state.
    det::map<std::uint64_t, TimePoint> probe_sent_;  // nonce -> time
    std::uint64_t next_nonce_ = 1;
    // Conservative until real probes arrive: suspecting a correct primary
    // because the monitor has not measured yet would break liveness.
    Duration rtt_estimate_ = milliseconds(3.0);
    std::uint64_t rotation_round_ = 0;
    std::map<std::uint64_t, std::set<NodeId>> suspect_votes_;
    bool suspected_current_ = false;

    sim::PeriodicTimer po_timer_;
    sim::PeriodicTimer order_timer_;
    sim::PeriodicTimer rtt_timer_;
    sim::PeriodicTimer check_timer_;
    Duration order_gap_override_{};

    // Registry handles, resolved once in the constructor.
    obs::Recorder* recorder_;
    obs::Counter* ctr_requests_received_ = nullptr;
    obs::Counter* ctr_requests_executed_ = nullptr;
    obs::Counter* ctr_orders_sent_ = nullptr;
    obs::Counter* ctr_orders_received_ = nullptr;
    obs::Counter* ctr_suspects_sent_ = nullptr;
    obs::Counter* ctr_rotations_ = nullptr;
    bool faulty_ = false;
};

}  // namespace rbft::protocols::prime
