// Unit tests for the PBFT-style instance engine: three-phase ordering,
// batching, checkpoints, watermarks, view changes, rotation and Byzantine
// primary behaviours — exercised through a 4-engine loopback harness with
// simulated link latency, independent of the node layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "bft/engine.hpp"
#include "net/flood.hpp"
#include "crypto/sha256.hpp"
#include "sim/simulator.hpp"

namespace rbft::bft {
namespace {

RequestRef ref_for(std::uint64_t i, std::uint32_t payload = 8) {
    RequestRef ref;
    ref.client = ClientId{static_cast<std::uint32_t>(i % 5)};
    ref.rid = RequestId{i};
    net::WireWriter w;
    w.u64(i);
    ref.digest = crypto::sha256(BytesView(w.buffer()));
    ref.payload_bytes = payload;
    return ref;
}

/// Loopback harness: four engines on four "nodes", messages delivered with
/// a small fixed latency, every request cleared unless listed in
/// `uncleared_`, ordered batches recorded.
class EngineHarness : public EngineHost {
public:
    explicit EngineHarness(EngineConfig base = {}, std::uint32_t n = 4)
        : keys_(123), cores_(n) {
        recorder_.enable_profiling();
        for (std::uint32_t i = 0; i < n; ++i) {
            EngineConfig cfg = base;
            cfg.node = NodeId{i};
            cfg.n = n;
            cfg.f = max_faults(n);
            cfg.recorder = &recorder_;
            engines_.push_back(
                std::make_unique<InstanceEngine>(cfg, sim, cores_[i], keys_, costs_, *this));
        }
        ordered_.resize(n);
    }

    void engine_send(InstanceId, NodeId dest, net::MessagePtr m) override {
        // The sender is implicit: engines include replica ids in messages;
        // we deliver with a fixed latency and reconstruct `from` per type.
        Duration latency = microseconds(100.0);
        if (intercept_) intercept_(dest, m, latency);
        sim.schedule_after(latency, [this, dest, m] {
            engines_.at(raw(dest))->on_message(from_of(*m), m);
        });
    }

    void engine_ordered(const OrderedBatch& batch) override {
        // Identify the delivering engine by matching `this` call context is
        // not possible; instead engines deliver in seq order, so we track
        // per-instance per-node streams by intercepting through a thunk.
        // Simpler: record into the shared log keyed by delivery order.
        deliveries_.push_back(batch);
    }

    bool engine_request_cleared(const RequestRef& ref) override {
        return !uncleared_.contains(ref.key());
    }
    void engine_view_installed(InstanceId, ViewId view) override {
        installed_views_.push_back(view);
    }

    void submit_all(const RequestRef& ref) {
        for (auto& e : engines_) e->submit(ref);
    }

    InstanceEngine& engine(std::uint32_t i) { return *engines_[i]; }
    std::uint32_t n() const { return static_cast<std::uint32_t>(engines_.size()); }
    std::uint64_t state_transfers(std::uint32_t node) const {
        return recorder_.metrics().counter_value("bft.state_transfers", node, 0);
    }
    std::uint64_t offers(std::uint32_t node) const {
        return recorder_.profiler()->counter_value("bft.preprepares_offered", node, 0);
    }
    std::uint64_t accepted(std::uint32_t node) const {
        return recorder_.metrics().counter_value("bft.preprepares_accepted", node, 0);
    }

    /// Requests delivered per node (deliveries_ interleaves nodes; for a
    /// single instance each node delivers every batch exactly once, so the
    /// total count is divisible by n when all nodes are live).
    std::vector<OrderedBatch> deliveries_;
    std::vector<ViewId> installed_views_;
    std::set<RequestKey> uncleared_;  // the node has not seen f+1 PROPAGATEs
    /// Optional in-flight tamper hook: may replace the message or stretch
    /// the latency of any engine-to-engine send.
    std::function<void(NodeId dest, net::MessagePtr& m, Duration& latency)> intercept_;

    sim::Simulator sim;

private:
    static NodeId from_of(const net::Message& m) {
        switch (m.type()) {
            case net::MsgType::kPrePrepare: {
                // Primary is identifiable from the view.
                const auto& pp = static_cast<const PrePrepareMsg&>(m);
                return NodeId{static_cast<std::uint32_t>((raw(pp.view) + raw(pp.instance)) % 4)};
            }
            case net::MsgType::kPrepare:
            case net::MsgType::kCommit:
                return static_cast<const PhaseMsg&>(m).replica;
            case net::MsgType::kCheckpoint:
                return static_cast<const CheckpointMsg&>(m).replica;
            case net::MsgType::kViewChange:
                return static_cast<const ViewChangeMsg&>(m).replica;
            case net::MsgType::kNewView:
                return static_cast<const NewViewMsg&>(m).primary;
            case net::MsgType::kRequest:
            case net::MsgType::kReply:
            case net::MsgType::kPropagate:
            case net::MsgType::kInstanceChange:
            case net::MsgType::kPoRequest:
            case net::MsgType::kPoAck:
            case net::MsgType::kPrimeOrder:
            case net::MsgType::kRttProbe:
            case net::MsgType::kRttEcho:
            case net::MsgType::kPrimeSuspect:
            case net::MsgType::kFlood:
                break;  // the engine test only routes ordering traffic
        }
        return NodeId{0};
    }

    obs::Recorder recorder_;
    crypto::KeyStore keys_;
    crypto::CostModel costs_;
    std::vector<sim::CpuCore> cores_;
    std::vector<std::unique_ptr<InstanceEngine>> engines_;
    std::vector<std::vector<OrderedBatch>> ordered_;
};

std::uint64_t total_requests(const std::vector<OrderedBatch>& batches) {
    std::uint64_t total = 0;
    for (const auto& b : batches) total += b.requests.size();
    return total;
}

// ---------------------------------------------------------------------------
// Normal-case ordering.

TEST(Engine, SingleRequestOrderedAtAllNodes) {
    EngineHarness h;
    h.submit_all(ref_for(1));
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(total_requests(h.deliveries_), 4u);  // 1 request x 4 nodes
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 1u);
}

TEST(Engine, ManyRequestsAllOrderedOnce) {
    EngineHarness h;
    for (std::uint64_t i = 1; i <= 200; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 200u);
}

TEST(Engine, DuplicateSubmissionOrderedOnce) {
    EngineHarness h;
    h.submit_all(ref_for(1));
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(50.0));
    h.submit_all(ref_for(1));  // late duplicate after ordering
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 1u);
}

TEST(Engine, DeliveryInSequenceOrderPerNode) {
    EngineHarness h;
    for (std::uint64_t i = 1; i <= 100; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    // The global delivery log interleaves nodes; per (instance) the seq of
    // consecutive deliveries from one node is strictly increasing.  Since
    // all four nodes deliver the same seqs, each seq appears exactly 4x.
    std::map<std::uint64_t, int> seq_counts;
    for (const auto& b : h.deliveries_) seq_counts[raw(b.seq)]++;
    for (const auto& [seq, count] : seq_counts) EXPECT_EQ(count, 4) << seq;
}

TEST(Engine, BatchingRespectsBatchMax) {
    EngineConfig cfg;
    cfg.batch_max = 10;
    EngineHarness h(cfg);
    for (std::uint64_t i = 1; i <= 100; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    for (const auto& b : h.deliveries_) EXPECT_LE(b.requests.size(), 10u);
}

TEST(Engine, BatchTimerFlushesPartialBatch) {
    EngineConfig cfg;
    cfg.batch_max = 64;
    cfg.batch_delay = milliseconds(5.0);
    EngineHarness h(cfg);
    h.submit_all(ref_for(1));  // far below batch_max
    h.sim.run_for(milliseconds(3.0));
    EXPECT_EQ(total_requests(h.deliveries_), 0u);  // timer still pending
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(total_requests(h.deliveries_), 4u);
}

TEST(Engine, ByteBudgetSplitsBatches) {
    EngineConfig cfg;
    cfg.batch_max = 64;
    cfg.batch_max_bytes = 1000;
    EngineHarness h(cfg);
    for (std::uint64_t i = 1; i <= 20; ++i) h.submit_all(ref_for(i, 400));  // 2.5 per batch
    h.sim.run_for(seconds(2.0));
    for (const auto& b : h.deliveries_) EXPECT_LE(b.requests.size(), 3u);
    EXPECT_EQ(h.engine(0).total_ordered(), 20u);
}

TEST(Engine, OversizedSingleRequestStillAdmitted) {
    EngineConfig cfg;
    cfg.batch_max_bytes = 100;
    EngineHarness h(cfg);
    h.submit_all(ref_for(1, 5000));  // bigger than the whole budget
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 1u);
}

TEST(Engine, RequestClearanceGatesPreparing) {
    EngineHarness h;
    h.uncleared_.insert(ref_for(1).key());
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(500.0));
    EXPECT_EQ(total_requests(h.deliveries_), 0u);
    h.uncleared_.clear();
    h.submit_all(ref_for(1));  // the clearance push wakes the held PRE-PREPARE
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 1u);
}

TEST(Engine, TotalOrderedCountsEveryDeliveredRequest) {
    EngineHarness h;
    for (std::uint64_t i = 1; i <= 10; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 10u);
}

TEST(Engine, OldestWaitingAgeTracksUnorderedRequests) {
    EngineHarness h;
    h.engine(0).set_silent(true);  // primary of view 0 is silent
    h.engine(1).submit(ref_for(1));
    h.sim.run_for(milliseconds(100.0));
    EXPECT_GE(h.engine(1).oldest_waiting_age().ns, milliseconds(99.0).ns);
    EXPECT_EQ(h.engine(1).oldest_waiting_age().ns, h.sim.now().ns);  // since t=0
    h.engine(1).submit(ref_for(1));  // a second submit keeps the first time
    h.sim.run_for(milliseconds(100.0));
    EXPECT_EQ(h.engine(1).oldest_waiting_age().ns, h.sim.now().ns);
}

// ---------------------------------------------------------------------------
// Checkpoints and watermarks.

TEST(Engine, CheckpointsAdvanceStableAndGcSlots) {
    EngineConfig cfg;
    cfg.batch_max = 1;  // one slot per request: predictable seqs
    cfg.checkpoint_interval = 10;
    EngineHarness h(cfg);
    for (std::uint64_t i = 1; i <= 35; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    EXPECT_GE(raw(h.engine(0).last_stable()), 30u);
}

// ---------------------------------------------------------------------------
// Falling behind a stable checkpoint: deliver the slots held, or transfer.

// Delays every message of `type` addressed to node 3 by `extra`.
std::function<void(NodeId, net::MessagePtr&, Duration&)> slow_to_node3(
    std::vector<net::MsgType> types, Duration extra) {
    return [types = std::move(types), extra](NodeId dest, net::MessagePtr& m, Duration& latency) {
        if (dest != NodeId{3}) return;
        if (std::find(types.begin(), types.end(), m->type()) == types.end()) return;
        latency = latency + extra;
    };
}

TEST(EngineCheckpoint, StragglerHoldingPrePreparesDeliversItsOwnSlots) {
    // Node 3's votes arrive 5 ms late, its PRE-PREPAREs and CHECKPOINTs on
    // time: checkpoint 4 becomes stable there before it delivered.  Holding
    // every PRE-PREPARE, it waits, delivers the 4 slots itself and adopts
    // the checkpoint on reaching it.
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 4;
    EngineHarness h(cfg);
    h.intercept_ = slow_to_node3({net::MsgType::kPrepare, net::MsgType::kCommit},
                                 milliseconds(5.0));
    for (std::uint64_t i = 1; i <= 4; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(3.0));
    ASSERT_EQ(raw(h.engine(0).last_stable()), 4u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 0u);  // deferred, not adopted
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.engine(3).total_ordered(), 4u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 4u);
    for (std::uint64_t i = 5; i <= 8; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.engine(3).total_ordered(), 8u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 8u);
    EXPECT_EQ(h.state_transfers(3), 0u);
}

TEST(EngineCheckpoint, MissingPrePrepareTransfersAtOnce) {
    // Node 3 never sees the PRE-PREPAREs in time: it cannot finish the
    // slots, so it adopts checkpoint 4 as soon as it is stable.
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 4;
    EngineHarness h(cfg);
    h.intercept_ = slow_to_node3({net::MsgType::kPrePrepare}, seconds(10.0));
    for (std::uint64_t i = 1; i <= 4; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.state_transfers(3), 1u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 4u);
    EXPECT_EQ(raw(h.engine(3).next_to_deliver()), 5u);
    EXPECT_EQ(h.engine(3).total_ordered(), 0u);
}

TEST(EngineCheckpoint, DeferralEndsWhenTheNextCheckpointStabilizes) {
    // Node 3 holds the PRE-PREPAREs but its votes never arrive and no stall
    // retry is configured: it waits at checkpoint 4 until checkpoint 8 is
    // stable, then state-transfers to 8.
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 4;
    EngineHarness h(cfg);
    h.intercept_ = slow_to_node3({net::MsgType::kPrepare, net::MsgType::kCommit},
                                 seconds(10.0));
    for (std::uint64_t i = 1; i <= 4; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    ASSERT_EQ(raw(h.engine(0).last_stable()), 4u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 0u);
    EXPECT_EQ(h.state_transfers(3), 0u);
    for (std::uint64_t i = 5; i <= 8; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.state_transfers(3), 1u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 8u);
    EXPECT_EQ(raw(h.engine(3).next_to_deliver()), 9u);
}

TEST(EngineCheckpoint, DeferralEndsAfterARetryPeriodWithoutDelivery) {
    // As above, with a 20 ms stall retry: one retry period without a
    // delivery ends the wait, with no further checkpoint needed.
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 4;
    cfg.retry_interval = milliseconds(20.0);
    EngineHarness h(cfg);
    h.intercept_ = slow_to_node3({net::MsgType::kPrepare, net::MsgType::kCommit},
                                 seconds(10.0));
    for (std::uint64_t i = 1; i <= 4; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(10.0));
    ASSERT_EQ(raw(h.engine(0).last_stable()), 4u);
    EXPECT_EQ(h.state_transfers(3), 0u);
    h.sim.run_for(milliseconds(100.0));
    EXPECT_EQ(h.state_transfers(3), 1u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 4u);
    EXPECT_EQ(raw(h.engine(3).next_to_deliver()), 5u);
}

// ---------------------------------------------------------------------------
// Held PRE-PREPAREs: offered again only when what they wait for happens.

TEST(EngineHold, PrePrepareLackingTwoRequestsWaitsForBoth) {
    EngineConfig cfg;
    cfg.batch_max = 2;
    EngineHarness h(cfg);
    net::MessagePtr copy;
    h.intercept_ = [&copy](NodeId dest, net::MessagePtr& m, Duration&) {
        if (dest == NodeId{1} && m->type() == net::MsgType::kPrePrepare) copy = m;
    };
    h.uncleared_ = {ref_for(1).key(), ref_for(2).key()};
    h.engine(0).submit(ref_for(1));
    h.engine(0).submit(ref_for(2));  // the primary proposes both in one batch
    h.sim.run_for(milliseconds(5.0));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(h.engine(1).held_preprepares(), 1u);
    EXPECT_EQ(h.offers(1), 1u);

    h.engine(1).on_message(NodeId{0}, copy);  // the same PRE-PREPARE again
    for (std::uint64_t i = 3; i <= 6; ++i) h.engine(1).submit(ref_for(i));  // unrelated
    h.sim.run_for(milliseconds(5.0));
    EXPECT_EQ(h.engine(1).held_preprepares(), 1u);
    EXPECT_EQ(h.offers(1), 2u);  // only the copy's own arrival

    h.uncleared_.erase(ref_for(1).key());
    for (std::uint32_t i = 1; i < 4; ++i) h.engine(i).submit(ref_for(1));
    h.sim.run_for(milliseconds(5.0));
    EXPECT_EQ(h.offers(1), 3u);  // woken, now waiting on the second request
    EXPECT_EQ(h.engine(1).held_preprepares(), 1u);
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);

    h.uncleared_.clear();
    for (std::uint32_t i = 1; i < 4; ++i) h.engine(i).submit(ref_for(2));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.offers(1), 4u);
    EXPECT_EQ(h.engine(1).held_preprepares(), 0u);
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 2u) << i;
}

TEST(EngineHold, HoldReleasedWhenItsRequestIsOrderedThroughAnotherSlot) {
    // Node 1 holds a PRE-PREPARE for seq 2 lacking request 1.  The request
    // then clears without reaching node 1's engine, and the primary orders
    // it at seq 1: that ordering alone wakes the hold.
    EngineConfig cfg;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    auto pp = std::make_shared<PrePrepareMsg>();
    pp->view = ViewId{0};
    pp->seq = SeqNum{2};
    pp->batch = {ref_for(1)};
    h.uncleared_.insert(ref_for(1).key());
    h.engine(1).on_message(NodeId{0}, pp);
    h.sim.run_for(milliseconds(1.0));
    EXPECT_EQ(h.engine(1).held_preprepares(), 1u);

    h.uncleared_.clear();
    h.engine(0).submit(ref_for(1));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 1u);
    EXPECT_EQ(h.engine(1).held_preprepares(), 0u);
    EXPECT_EQ(h.offers(1), 3u);  // the hold, seq 1, the hold woken by ordering
}

TEST(EngineHold, LaterViewPrePrepareAcceptedOnceTheViewInstalls) {
    // Node 2's NEW-VIEW is late, so the view-1 primary's PRE-PREPARE
    // arrives first: node 2 holds it and accepts it on installing view 1.
    EngineHarness h;
    h.intercept_ = [](NodeId dest, net::MessagePtr& m, Duration& latency) {
        if (dest == NodeId{2} && m->type() == net::MsgType::kNewView) {
            latency = latency + milliseconds(20.0);
        }
    };
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(milliseconds(5.0));
    ASSERT_EQ(h.engine(1).view(), ViewId{1});
    ASSERT_EQ(h.engine(2).view(), ViewId{0});
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(5.0));
    EXPECT_EQ(h.engine(2).held_preprepares(), 1u);
    EXPECT_EQ(h.accepted(2), 0u);
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.engine(2).view(), ViewId{1});
    EXPECT_EQ(h.engine(2).held_preprepares(), 0u);
    EXPECT_EQ(h.accepted(2), 1u);
    EXPECT_EQ(h.engine(2).total_ordered(), 1u);
}

TEST(EngineHold, RotatingHandOffIsAcceptedOnceTheViewAdvances) {
    // Node 3's COMMITs are late, so the view-1 primary's PRE-PREPARE for
    // seq 2 arrives while node 3 is still in view 0.  Delivering seq 1
    // advances its view, which wakes the held PRE-PREPARE.
    EngineConfig cfg;
    cfg.rotating_primary = true;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    h.intercept_ = slow_to_node3({net::MsgType::kCommit}, milliseconds(5.0));
    h.submit_all(ref_for(1));
    h.submit_all(ref_for(2));
    h.sim.run_for(milliseconds(2.0));
    EXPECT_EQ(h.engine(3).view(), ViewId{0});
    EXPECT_EQ(h.engine(3).held_preprepares(), 1u);
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.engine(3).total_ordered(), 2u);
    EXPECT_EQ(h.engine(3).held_preprepares(), 0u);
}

TEST(EngineHold, ViewInstallDropsHoldsOfOlderViews) {
    EngineHarness h;
    h.uncleared_.insert(ref_for(1).key());
    h.engine(0).submit(ref_for(1));
    h.sim.run_for(milliseconds(5.0));
    for (std::uint32_t i = 1; i < 4; ++i) ASSERT_EQ(h.engine(i).held_preprepares(), 1u) << i;
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(milliseconds(50.0));
    for (std::uint32_t i = 1; i < 4; ++i) {
        EXPECT_EQ(h.engine(i).view(), ViewId{1}) << i;
        EXPECT_EQ(h.engine(i).held_preprepares(), 0u) << i;
    }
}

TEST(EngineHold, StateTransferDropsHoldsItSkips) {
    // Node 3 sees every PRE-PREPARE with an extra request that never
    // clears there: it holds all of them, defers checkpoint 4, and the
    // transfer to checkpoint 8 drops the holds it skips.
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 4;
    EngineHarness h(cfg);
    h.uncleared_.insert(ref_for(99).key());
    h.intercept_ = [](NodeId dest, net::MessagePtr& m, Duration&) {
        if (dest != NodeId{3} || m->type() != net::MsgType::kPrePrepare) return;
        auto padded = std::make_shared<PrePrepareMsg>(static_cast<const PrePrepareMsg&>(*m));
        padded->batch.push_back(ref_for(99));
        m = padded;
    };
    for (std::uint64_t i = 1; i <= 4; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    ASSERT_EQ(raw(h.engine(0).last_stable()), 4u);
    EXPECT_EQ(h.engine(3).held_preprepares(), 4u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 0u);  // deferred: it holds every slot
    for (std::uint64_t i = 5; i <= 8; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(50.0));
    EXPECT_EQ(h.state_transfers(3), 1u);
    EXPECT_EQ(raw(h.engine(3).last_stable()), 8u);
    EXPECT_EQ(h.engine(3).held_preprepares(), 0u);
}

TEST(Engine, WatermarkBoundsInFlightProposals) {
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.checkpoint_interval = 1000;  // checkpoints can't advance in this run
    EngineHarness h(cfg);
    // Make backups silent so nothing commits: primary may propose at most
    // `kWatermarkWindow` slots beyond stable (0).
    constexpr std::uint64_t kWindow = InstanceEngine::kWatermarkWindow;
    for (std::uint32_t i = 1; i < 4; ++i) h.engine(i).set_silent(true);
    for (std::uint64_t i = 1; i <= kWindow + 100; ++i) h.engine(0).submit(ref_for(i));
    h.sim.run_for(seconds(1.0));
    EXPECT_LE(h.engine(0).preprepares_sent(), kWindow);
}

// ---------------------------------------------------------------------------
// View changes.

TEST(Engine, CoordinatedViewChangeElectsNextPrimary) {
    EngineHarness h;
    EXPECT_EQ(h.engine(0).primary(), NodeId{0});
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.engine(i).view(), ViewId{1});
        EXPECT_EQ(h.engine(i).primary(), NodeId{1});
        EXPECT_FALSE(h.engine(i).view_change_in_progress());
    }
    EXPECT_GE(h.installed_views_.size(), 4u);
}

TEST(Engine, OrderingResumesAfterViewChange) {
    EngineHarness h;
    for (std::uint64_t i = 1; i <= 10; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    for (std::uint64_t i = 11; i <= 20; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 20u);
}

TEST(Engine, BacklogReorderedByNewPrimaryAfterViewChange) {
    EngineHarness h;
    h.engine(0).set_silent(true);  // view-0 primary Byzantine-silent
    for (std::uint64_t i = 1; i <= 10; ++i) {
        for (std::uint32_t e = 1; e < 4; ++e) h.engine(e).submit(ref_for(i));
    }
    h.sim.run_for(milliseconds(200.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);
    for (std::uint32_t i = 1; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    // New primary (node 1) orders the backlog; 3 live engines deliver.
    for (std::uint32_t i = 1; i < 4; ++i) EXPECT_EQ(h.engine(i).total_ordered(), 10u);
}

TEST(Engine, StaleViewChangeTargetIgnored) {
    EngineHarness h;
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    h.engine(0).start_view_change(ViewId{1});  // stale: already installed
    h.sim.run_for(milliseconds(200.0));
    EXPECT_EQ(h.engine(0).view(), ViewId{1});
    EXPECT_FALSE(h.engine(0).view_change_in_progress());
}

TEST(Engine, FPlusOneVotesJoinViewChange) {
    EngineHarness h;
    // Only 2 of 4 engines (f+1 = 2) start the view change; the rest join.
    h.engine(1).start_view_change(ViewId{1});
    h.engine(2).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(h.engine(i).view(), ViewId{1});
}

TEST(Engine, PreparedRequestSurvivesViewChange) {
    EngineConfig cfg;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    h.submit_all(ref_for(1));
    // Let the protocol reach prepare/commit stage, then force a view change
    // mid-flight: the request must still be ordered exactly once.
    h.sim.run_for(microseconds(250.0));
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).start_view_change(ViewId{1});
    h.sim.run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.engine(i).total_ordered(), 1u) << "node " << i;
    }
}

// ---------------------------------------------------------------------------
// Rotating-primary (Spinning) mode.

TEST(EngineRotating, PrimaryRotatesEveryBatch) {
    EngineConfig cfg;
    cfg.rotating_primary = true;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    for (std::uint64_t i = 1; i <= 8; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 8u);
    // After 8 single-request batches the view advanced 8 times.
    EXPECT_EQ(raw(h.engine(0).view()), 8u);
    EXPECT_EQ(h.engine(0).primary(), NodeId{0});  // 8 mod 4
}

TEST(EngineRotating, EveryNodeProposesInTurn) {
    EngineConfig cfg;
    cfg.rotating_primary = true;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    for (std::uint64_t i = 1; i <= 8; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(2.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.engine(i).preprepares_sent(), 2u) << "node " << i;
    }
}

TEST(EngineRotating, PrimaryFilterSkipsBlacklisted) {
    EngineConfig cfg;
    cfg.rotating_primary = true;
    EngineHarness h(cfg);
    for (std::uint32_t i = 0; i < 4; ++i) {
        h.engine(i).set_primary_filter([](NodeId node) { return node == NodeId{2}; });
    }
    EXPECT_EQ(h.engine(0).primary_of(ViewId{2}), NodeId{3});  // 2 blacklisted
    EXPECT_EQ(h.engine(0).primary_of(ViewId{3}), NodeId{3});
}

TEST(EngineRotating, AllBlacklistedFallsBack) {
    EngineConfig cfg;
    cfg.rotating_primary = true;
    EngineHarness h(cfg);
    h.engine(0).set_primary_filter([](NodeId) { return true; });
    EXPECT_EQ(h.engine(0).primary_of(ViewId{2}), NodeId{2});
}

// ---------------------------------------------------------------------------
// Byzantine primary behaviours.

TEST(EngineBehavior, InterBatchGapRateLimits) {
    EngineConfig cfg;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    PrimaryBehavior slow;
    slow.inter_batch_gap = milliseconds(10.0);
    h.engine(0).set_primary_behavior(slow);
    for (std::uint64_t i = 1; i <= 100; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(milliseconds(100.0));
    // ~10 batches in 100ms at 1 per 10ms (plus the initial unthrottled one).
    EXPECT_LE(h.engine(0).preprepares_sent(), 12u);
    EXPECT_GE(h.engine(0).preprepares_sent(), 9u);
}

TEST(EngineBehavior, PrePrepareDelayHoldsBatch) {
    EngineConfig cfg;
    cfg.batch_max = 1;
    EngineHarness h(cfg);
    PrimaryBehavior delayer;
    delayer.preprepare_delay = milliseconds(30.0);
    h.engine(0).set_primary_behavior(delayer);
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(20.0));
    EXPECT_EQ(h.engine(0).preprepares_sent(), 0u);
    h.sim.run_for(milliseconds(100.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 1u);
}

TEST(EngineBehavior, SilentPrimaryOrdersNothing) {
    EngineHarness h;
    PrimaryBehavior silent;
    silent.silent = true;
    h.engine(0).set_primary_behavior(silent);
    for (std::uint64_t i = 1; i <= 10; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(1.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);
}

TEST(EngineBehavior, BatchCapShrinksBatches) {
    EngineConfig cfg;
    cfg.batch_max = 64;
    EngineHarness h(cfg);
    PrimaryBehavior capped;
    capped.batch_cap = 4;
    h.engine(0).set_primary_behavior(capped);
    for (std::uint64_t i = 1; i <= 40; ++i) h.submit_all(ref_for(i));
    h.sim.run_for(seconds(1.0));
    for (const auto& b : h.deliveries_) EXPECT_LE(b.requests.size(), 4u);
    EXPECT_EQ(h.engine(0).total_ordered(), 40u);
}

TEST(EngineBehavior, PerRequestDelayPostponesVictimOnly) {
    EngineConfig cfg;
    cfg.batch_max = 1;
    cfg.batch_delay = microseconds(100.0);
    EngineHarness h(cfg);
    PrimaryBehavior unfair;
    unfair.per_request_delay = [](const RequestRef& ref) {
        return ref.client == ClientId{0} ? milliseconds(50.0) : Duration{};
    };
    h.engine(0).set_primary_behavior(unfair);
    h.submit_all(ref_for(5));   // client 0 (5 % 5)
    h.submit_all(ref_for(11));  // client 1
    h.sim.run_for(milliseconds(20.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 1u);  // only client 1's request
    h.sim.run_for(milliseconds(100.0));
    EXPECT_EQ(h.engine(0).total_ordered(), 2u);
}

TEST(EngineBehavior, CorruptPrePrepareMacIgnoredByTarget) {
    EngineHarness h;
    PrimaryBehavior corrupt;
    corrupt.corrupt_preprepare_mac_mask = 0b0010;  // node 1 can't verify
    h.engine(0).set_primary_behavior(corrupt);
    h.submit_all(ref_for(1));
    h.sim.run_for(seconds(1.0));
    // Nodes 0,2,3 still form a commit quorum (2f+1 = 3); node 1 receives
    // commits but never prepared, so it cannot deliver.
    EXPECT_EQ(h.engine(0).total_ordered(), 1u);
    EXPECT_EQ(h.engine(2).total_ordered(), 1u);
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);
}

TEST(EngineBehavior, VotesForAnEquivocatedVariantAreNotCounted) {
    // The primary equivocates on seq 1: nodes 2 and 3 receive a variant
    // batch, node 1 the original, and node 1's PRE-PREPARE is late.  The
    // variant's PREPAREs and COMMITs reach node 1 before its PRE-PREPARE
    // does.  They back another digest, so they must not count toward the
    // original's quorums: node 1 holds only its own PREPARE, and nobody can
    // order seq 1.
    EngineHarness h;
    EngineTestFaults faults;
    faults.equivocate_mask = 0b1100;
    for (std::uint32_t i = 0; i < 4; ++i) h.engine(i).plant_faults(faults);
    h.intercept_ = [](NodeId dest, net::MessagePtr& m, Duration& latency) {
        if (dest == NodeId{1} && m->type() == net::MsgType::kPrePrepare) {
            latency = latency + milliseconds(5.0);
        }
    };
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(200.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);
    EXPECT_TRUE(h.deliveries_.empty());
}

TEST(EngineBehavior, VotesForAnotherViewAreNotCounted) {
    // Every PREPARE and COMMIT addressed to node 1 is rewritten to claim
    // view 1 while the PRE-PREPARE is in view 0.  The digests still match,
    // but a vote counts only for the view it carries: node 1 never reaches
    // a quorum, while the other three order the request among themselves.
    EngineHarness h;
    h.intercept_ = [](NodeId dest, net::MessagePtr& m, Duration&) {
        if (dest != NodeId{1}) return;
        if (m->type() != net::MsgType::kPrepare && m->type() != net::MsgType::kCommit) return;
        auto moved = std::make_shared<PhaseMsg>(static_cast<const PhaseMsg&>(*m));
        moved->view = ViewId{1};
        m = moved;
    };
    h.submit_all(ref_for(1));
    h.sim.run_for(milliseconds(200.0));
    EXPECT_EQ(h.engine(1).total_ordered(), 0u);
    for (const std::uint32_t i : {0u, 2u, 3u}) EXPECT_EQ(h.engine(i).total_ordered(), 1u) << i;
}

TEST(EngineBehavior, FloodChargedAndDiscarded) {
    EngineHarness h;
    auto flood = std::make_shared<net::FloodMsg>(9000, net::FloodMsg::Target::kReplica);
    h.engine(1).on_message(NodeId{3}, flood);
    h.sim.run_for(milliseconds(10.0));
    EXPECT_EQ(h.engine(1).flood_discards(), 1u);
}

}  // namespace
}  // namespace rbft::bft
