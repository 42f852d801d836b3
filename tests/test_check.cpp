// Tests for the online invariant oracles (src/check/oracles.*), the seeded
// schedule explorer with ddmin shrinking (src/check/explore.*), the
// replayable violation artifacts (src/check/artifact.*) and the
// differential-conformance harness (src/check/conformance.*).
//
// Oracle unit tests feed hand-built event streams: a violating trace must
// trip exactly the targeted oracle and a clean trace must not.  The
// end-to-end tests plant a real engine bug (primary equivocation via
// EngineTestFaults) and verify the explorer finds it, shrinks the schedule,
// and produces an artifact that still reproduces after a serialization
// round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/artifact.hpp"
#include "check/conformance.hpp"
#include "check/explore.hpp"
#include "check/oracles.hpp"
#include "exp/chaos.hpp"

namespace rbft::check {
namespace {

using obs::EventType;

obs::TraceEvent ev(std::int64_t t_ns, EventType type, std::uint32_t node,
                   std::uint32_t instance, std::uint64_t a, std::uint64_t b, double x = 0.0) {
    return obs::TraceEvent{TimePoint{t_ns}, type, node, instance, a, b, x};
}

obs::TraceEvent fingerprint(std::int64_t t_ns, std::uint32_t node, std::uint32_t instance,
                            std::uint64_t seq, std::uint64_t hash, std::uint64_t view = 0) {
    return ev(t_ns, EventType::kBatchFingerprint, node, instance, seq, hash,
              static_cast<double>(view));
}

OracleSuite make_suite() { return OracleSuite(OracleConfig{}); }

// -- Oracle unit tests ------------------------------------------------------

TEST(Oracles, AgreementAcceptsMatchingDeliveries) {
    OracleSuite suite = make_suite();
    for (std::uint32_t node = 0; node < 4; ++node) {
        suite.on_event(fingerprint(1000 + node, node, 0, 1, 0xAAAA));
        suite.on_event(fingerprint(2000 + node, node, 0, 2, 0xBBBB));
    }
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
    EXPECT_EQ(suite.checks()[static_cast<std::size_t>(OracleId::kAgreement)], 8u);
}

TEST(Oracles, AgreementTripsOnConflictingDelivery) {
    OracleSuite suite = make_suite();
    suite.on_event(fingerprint(1000, 0, 0, 1, 0xAAAA));
    suite.on_event(fingerprint(1001, 1, 0, 1, 0xDEAD));  // same slot, other content
    suite.finalize();
    ASSERT_EQ(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kAgreement);
    EXPECT_EQ(suite.violations()[0].seq, 1u);
    EXPECT_EQ(suite.violations()[0].node, 1u);
}

TEST(Oracles, AgreementIsPerInstance) {
    // Different protocol instances legitimately order different batches at
    // the same sequence number.
    OracleSuite suite = make_suite();
    suite.on_event(fingerprint(1000, 0, 0, 1, 0xAAAA));
    suite.on_event(fingerprint(1001, 0, 1, 1, 0xBBBB));
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
}

TEST(Oracles, ViewChangeSafetyTripsWhenConflictCrossesViews) {
    OracleSuite suite = make_suite();
    suite.on_event(fingerprint(1000, 0, 0, 5, 0xAAAA, /*view=*/0));
    suite.on_event(fingerprint(2000, 1, 0, 5, 0xDEAD, /*view=*/1));
    suite.finalize();
    ASSERT_EQ(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kViewChangeSafety);
}

TEST(Oracles, PrefixTripsOnNonMonotonicDelivery) {
    OracleSuite suite = make_suite();
    suite.on_event(fingerprint(1000, 0, 0, 1, 0xA1));
    suite.on_event(fingerprint(2000, 0, 0, 2, 0xA2));
    suite.on_event(fingerprint(3000, 0, 0, 2, 0xA2));  // re-delivery
    suite.finalize();
    ASSERT_EQ(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kPrefix);
    EXPECT_EQ(suite.violations()[0].seq, 2u);
}

TEST(Oracles, PrefixResetsAcrossRestart) {
    // A recovering replica legitimately starts its delivery cursor over;
    // content is still pinned by the cluster-wide canonical fingerprints.
    OracleSuite suite = make_suite();
    suite.on_event(fingerprint(1000, 0, 0, 1, 0xA1));
    suite.on_event(fingerprint(2000, 0, 0, 2, 0xA2));
    suite.on_event(ev(3000, EventType::kNodeCrashed, 0, obs::kNoInstance, 0, 0));
    suite.on_event(ev(4000, EventType::kNodeRestarted, 0, obs::kNoInstance, 0, 0));
    suite.on_event(fingerprint(5000, 0, 0, 1, 0xA1));  // re-delivers after restart
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
}

TEST(Oracles, CheckpointQuorumAndMonotonicityEnforced) {
    OracleSuite suite = make_suite();  // f=1 -> quorum 3
    suite.on_event(ev(1000, EventType::kCheckpointStable, 0, 0, 16, 3));
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();

    OracleSuite weak = make_suite();
    weak.on_event(ev(1000, EventType::kCheckpointStable, 0, 0, 16, 2));  // below quorum
    weak.finalize();
    ASSERT_EQ(weak.violations().size(), 1u);
    EXPECT_EQ(weak.violations()[0].oracle, OracleId::kCheckpoint);

    OracleSuite backwards = make_suite();
    backwards.on_event(ev(1000, EventType::kCheckpointStable, 0, 0, 32, 3));
    backwards.on_event(ev(2000, EventType::kCheckpointStable, 0, 0, 16, 3));  // regression
    backwards.finalize();
    ASSERT_EQ(backwards.violations().size(), 1u);
    EXPECT_EQ(backwards.violations()[0].oracle, OracleId::kCheckpoint);
}

TEST(Oracles, InstanceChangeWithoutQuorumTrips) {
    OracleSuite suite = make_suite();
    // Round 0 completes with only 2 distinct votes (quorum is 2f+1 = 3).
    const auto lambda_reason = static_cast<std::uint64_t>(core::Node::IcReason::kLambda);
    suite.on_event(ev(1000, EventType::kInstanceChangeVote, 0, obs::kNoInstance, 0, lambda_reason));
    suite.on_event(ev(1001, EventType::kInstanceChangeVote, 1, obs::kNoInstance, 0, lambda_reason));
    suite.on_event(ev(2000, EventType::kInstanceChangeDone, 0, obs::kNoInstance, 1, 0));
    suite.finalize();
    ASSERT_GE(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kInstanceChange);
}

TEST(Oracles, InstanceChangeWithQuorumAndCoordinationIsClean) {
    OracleSuite suite = make_suite();  // instance_count = f+1 = 2
    const auto lambda_reason = static_cast<std::uint64_t>(core::Node::IcReason::kLambda);
    for (std::uint32_t voter = 0; voter < 3; ++voter) {
        suite.on_event(ev(1000 + voter, EventType::kInstanceChangeVote, voter,
                          obs::kNoInstance, 0, lambda_reason));
    }
    suite.on_event(ev(2000, EventType::kInstanceChangeDone, 0, obs::kNoInstance, 1, 0));
    // Both local instances react at the same timestamp (the node performs
    // the instance change synchronously).
    suite.on_event(ev(2000, EventType::kViewChangeStart, 0, 0, 1, 0));
    suite.on_event(ev(2000, EventType::kViewChangeStart, 0, 1, 1, 0));
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
}

TEST(Oracles, InstanceChangeWithoutFullCoordinationTrips) {
    OracleSuite suite = make_suite();
    const auto lambda_reason = static_cast<std::uint64_t>(core::Node::IcReason::kLambda);
    for (std::uint32_t voter = 0; voter < 3; ++voter) {
        suite.on_event(ev(1000 + voter, EventType::kInstanceChangeVote, voter,
                          obs::kNoInstance, 0, lambda_reason));
    }
    suite.on_event(ev(2000, EventType::kInstanceChangeDone, 0, obs::kNoInstance, 1, 0));
    suite.on_event(ev(2000, EventType::kViewChangeStart, 0, 0, 1, 0));  // instance 1 missing
    suite.finalize();
    ASSERT_EQ(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kInstanceChange);
}

TEST(Oracles, MonitoringVoteAfterConsecutiveBadWindowsIsClean) {
    OracleSuite suite = make_suite();  // MonitoringConfig::kConsecutiveBadWindows = 2
    suite.on_event(ev(1000, EventType::kMonitorVerdict, 2, obs::kNoInstance, 40,
                      obs::kVerdictBelowDelta, 0.5));
    // A not-judged window in between does not reset the streak.
    suite.on_event(ev(2000, EventType::kMonitorVerdict, 2, obs::kNoInstance, 0,
                      obs::kVerdictNotJudged, 0.0));
    suite.on_event(ev(3000, EventType::kMonitorVerdict, 2, obs::kNoInstance, 40,
                      obs::kVerdictVoted, 0.4));
    suite.on_event(ev(3001, EventType::kInstanceChangeVote, 2, obs::kNoInstance, 0,
                      static_cast<std::uint64_t>(core::Node::IcReason::kThroughput)));
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
}

TEST(Oracles, MonitoringVoteWithoutEvidenceTrips) {
    OracleSuite suite = make_suite();
    // Only one below-delta window before the throughput-reason vote.
    suite.on_event(ev(1000, EventType::kMonitorVerdict, 2, obs::kNoInstance, 40,
                      obs::kVerdictBelowDelta, 0.5));
    suite.on_event(ev(1001, EventType::kInstanceChangeVote, 2, obs::kNoInstance, 0,
                      static_cast<std::uint64_t>(core::Node::IcReason::kThroughput)));
    suite.finalize();
    ASSERT_EQ(suite.violations().size(), 1u);
    EXPECT_EQ(suite.violations()[0].oracle, OracleId::kMonitoring);
}

TEST(Oracles, NonThroughputVotesNeedNoWindowEvidence) {
    OracleSuite suite = make_suite();
    suite.on_event(ev(1000, EventType::kInstanceChangeVote, 2, obs::kNoInstance, 0,
                      static_cast<std::uint64_t>(core::Node::IcReason::kLambda)));
    suite.finalize();
    EXPECT_TRUE(suite.ok()) << suite.summary();
}

TEST(Oracles, NameRoundTrip) {
    for (std::size_t i = 0; i < kOracleCount; ++i) {
        const auto id = static_cast<OracleId>(i);
        OracleId parsed{};
        ASSERT_TRUE(oracle_from_name(oracle_name(id), parsed));
        EXPECT_EQ(parsed, id);
    }
    OracleId parsed{};
    EXPECT_FALSE(oracle_from_name("not_an_oracle", parsed));
}

// -- Clean runs do not trip -------------------------------------------------

TEST(Explore, CleanSchedulesProduceNoViolations) {
    ExploreScenario scenario;
    scenario.duration = milliseconds(400.0);
    const ExploreOutcome outcome = explore(scenario, /*first_seed=*/1, /*num_seeds=*/3);
    EXPECT_EQ(outcome.seeds_run, 3u);
    EXPECT_FALSE(outcome.artifact.has_value());
    EXPECT_EQ(outcome.seeds_violating, 0u);
    // The oracles actually observed the run.
    EXPECT_GT(outcome.checks[static_cast<std::size_t>(OracleId::kAgreement)], 0u);
    EXPECT_GT(outcome.completed, 0u);
}

TEST(Oracles, CleanChaosSoakProducesNoViolations) {
    // The oracles ride along a faulty (crash / partition / link-degrade)
    // soak: a correct implementation under injected faults must not trip
    // any invariant.
    exp::ChaosSoakScenario scenario;
    scenario.seed = 7;
    scenario.duration = seconds(3.0);
    scenario.quiet_tail = seconds(1.0);
    scenario.clients = 4;
    scenario.recorder = std::make_shared<obs::Recorder>();

    OracleSuite suite = make_suite();
    suite.attach(*scenario.recorder);
    const exp::ChaosSoakOutput out = exp::run_chaos_soak(scenario);
    suite.finalize();
    scenario.recorder->set_listener({});

    EXPECT_TRUE(out.safety_ok);
    EXPECT_TRUE(suite.ok()) << suite.summary();
    EXPECT_GT(suite.events_seen(), 0u);
}

// -- Planted bug: explorer finds, shrinks, artifact replays -----------------

ExploreScenario equivocating_scenario() {
    ExploreScenario scenario;
    scenario.duration = milliseconds(300.0);
    // Node 1 receives per-destination variant PRE-PREPAREs from every
    // primary; lowered quorums let both variants commit without crossing
    // votes, so replicas deliver divergent batches — the planted bug.
    scenario.test_faults.equivocate_mask = 1ull << 1;
    scenario.test_faults.prepare_quorum_override = 1;
    scenario.test_faults.commit_quorum_override = 1;
    return scenario;
}

TEST(Explore, PlantedEquivocationCaughtShrunkAndReplayable) {
    const ExploreScenario scenario = equivocating_scenario();
    const ExploreOutcome outcome = explore(scenario, /*first_seed=*/1, /*num_seeds=*/2);
    ASSERT_TRUE(outcome.artifact.has_value());
    const ViolationArtifact& artifact = *outcome.artifact;
    EXPECT_EQ(artifact.oracle, OracleId::kAgreement);
    EXPECT_FALSE(artifact.detail.empty());

    // The shrunk schedule is minimal: the equivocation does not depend on
    // any perturbation, so ddmin must reduce the schedule to empty.
    EXPECT_EQ(artifact.schedule.size(), 0u);
    EXPECT_GT(outcome.shrink_runs, 0u);

    // The minimized schedule still reproduces the violation...
    EXPECT_TRUE(reproduces(artifact));

    // ...including after a serialization round trip (what
    // `trace_inspect replay` does with the written file).
    std::istringstream in(to_json(artifact));
    ViolationArtifact parsed;
    ASSERT_TRUE(parse_artifact(in, parsed));
    EXPECT_EQ(parsed.seed, artifact.seed);
    EXPECT_EQ(parsed.oracle, artifact.oracle);
    EXPECT_EQ(parsed.schedule.size(), artifact.schedule.size());
    EXPECT_EQ(parsed.scenario.test_faults.equivocate_mask,
              artifact.scenario.test_faults.equivocate_mask);
    EXPECT_TRUE(reproduces(parsed));
}

TEST(Explore, EquivocationWithProtocolQuorumsKeepsAgreement) {
    // An equivocating primary is inside the fault model: with the
    // protocol's own quorums at most one variant of a batch can commit.
    // Among seeds 1-40 are schedules (seed 18 is one) where a variant's
    // PREPAREs and COMMITs reach a replica before its own PRE-PREPARE;
    // counting those votes toward the other batch broke agreement.
    ExploreScenario scenario;
    scenario.test_faults.equivocate_mask = 0b1100;
    const ExploreOutcome outcome = explore(scenario, /*first_seed=*/1, /*num_seeds=*/40);
    EXPECT_EQ(outcome.seeds_run, 40u);
    EXPECT_EQ(outcome.seeds_violating, 0u);
    EXPECT_FALSE(outcome.artifact.has_value());
}

TEST(Explore, ShrinkKeepsViolationWithNonEmptySchedule) {
    // Start from a sampled (non-empty) perturbation set and shrink against
    // the planted violation: every intermediate candidate and the final
    // result must still trip the agreement oracle.
    const ExploreScenario scenario = equivocating_scenario();
    const std::uint64_t seed = 5;
    const std::vector<Perturbation> sampled = sample_perturbations(scenario, seed);
    ASSERT_FALSE(sampled.empty());

    std::uint64_t runs = 0;
    const std::vector<Perturbation> shrunk =
        shrink_schedule(scenario, seed, sampled, OracleId::kAgreement, &runs);
    EXPECT_LE(shrunk.size(), sampled.size());
    EXPECT_GT(runs, 0u);

    const ScheduleResult result = run_schedule(scenario, seed, shrunk);
    bool tripped = false;
    for (const Violation& v : result.violations) {
        if (v.oracle == OracleId::kAgreement) tripped = true;
    }
    EXPECT_TRUE(tripped);
}

TEST(Artifact, ParserRejectsGarbageAndCountMismatch) {
    ViolationArtifact out;
    std::istringstream empty("");
    EXPECT_FALSE(parse_artifact(empty, out));
    std::istringstream wrong_header("{\n\"artifact\": \"something-else\",\n}\n");
    EXPECT_FALSE(parse_artifact(wrong_header, out));
    // Declared perturbation count must match the parsed schedule.
    std::istringstream mismatch(
        "{\n\"artifact\": \"rbft-check-violation\",\n\"oracle\": \"agreement\",\n"
        "\"perturbation_count\": 3\n}\n");
    EXPECT_FALSE(parse_artifact(mismatch, out));
}

// -- Seed determinism -------------------------------------------------------

TEST(Explore, SameSeedSameScenarioIsBitIdentical) {
    const ExploreScenario scenario = equivocating_scenario();
    const ExploreOutcome first = explore(scenario, /*first_seed=*/3, /*num_seeds=*/2);
    const ExploreOutcome second = explore(scenario, /*first_seed=*/3, /*num_seeds=*/2);

    // Identical oracle activity...
    EXPECT_EQ(first.checks, second.checks);
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.seeds_violating, second.seeds_violating);

    // ...and byte-identical violation artifacts.
    ASSERT_TRUE(first.artifact.has_value());
    ASSERT_TRUE(second.artifact.has_value());
    EXPECT_EQ(to_json(*first.artifact), to_json(*second.artifact));
}

TEST(Explore, SampledPerturbationsAreDeterministicPerSeed) {
    ExploreScenario scenario;
    const std::vector<Perturbation> a = sample_perturbations(scenario, 11);
    const std::vector<Perturbation> b = sample_perturbations(scenario, 11);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
        EXPECT_EQ(a[i].at_ns, b[i].at_ns);
        EXPECT_EQ(a[i].until_ns, b[i].until_ns);
        EXPECT_EQ(a[i].delay_ns, b[i].delay_ns);
        EXPECT_EQ(a[i].p, b[i].p);
    }
    const std::vector<Perturbation> c = sample_perturbations(scenario, 12);
    EXPECT_FALSE(a.size() == c.size() &&
                 std::equal(a.begin(), a.end(), c.begin(), [](const auto& l, const auto& r) {
                     return l.kind == r.kind && l.at_ns == r.at_ns && l.until_ns == r.until_ns;
                 }));
}

// -- Differential conformance ----------------------------------------------

TEST(Conformance, AllProtocolsExecuteTheSameRequestSet) {
    ConformanceScenario scenario;
    scenario.requests_per_client = 10;
    const ConformanceResult result = run_conformance(scenario);
    // Every contender: RBFT + the three baseline protocols.
    ASSERT_EQ(result.runs.size(), 4u);
    for (const ProtocolExecution& run : result.runs) {
        EXPECT_TRUE(run.all_completed) << run.protocol << " completed " << run.completed;
        EXPECT_EQ(run.executed.size(),
                  static_cast<std::size_t>(scenario.clients) * scenario.requests_per_client)
            << run.protocol;
    }
    EXPECT_TRUE(result.sets_match);
    EXPECT_TRUE(result.ok());
}

// RBFT alone under an attack on its master instance must still complete
// every closed-loop request.
void expect_rbft_completes(const ConformanceScenario& scenario, const char* label) {
    const ConformanceResult result = run_conformance(scenario);
    ASSERT_EQ(result.runs.size(), 1u) << label;
    const ProtocolExecution& run = result.runs.front();
    EXPECT_EQ(run.protocol, "rbft") << label;
    EXPECT_TRUE(run.all_completed)
        << label << ": completed " << run.completed << " of "
        << scenario.clients * scenario.requests_per_client;
    EXPECT_EQ(run.executed.size(),
              static_cast<std::size_t>(scenario.clients) * scenario.requests_per_client)
        << label;
}

TEST(BackendConformance, MasterDegradationAttack) {
    // A slow master gets caught by monitoring and replaced while batches
    // are in flight; execution must carry on across the instance change.
    ConformanceScenario s;
    s.seed = 12;
    s.master_degradation = true;
    expect_rbft_completes(s, "master degradation");
}

TEST(BackendConformance, EquivocatingMasterPrePrepares) {
    // Equivocation with honest quorums: the variant pre-prepare cannot
    // gather a commit quorum, so the masked node stalls locally and catches
    // up; every request still completes.
    ConformanceScenario s;
    s.seed = 13;
    s.equivocate_mask = 1ull << 1;
    expect_rbft_completes(s, "equivocating master");
}

TEST(BackendSweep, TwentySeedsAcrossAttackGrid) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ConformanceScenario s;
        s.seed = seed;
        s.contenders = {"rbft"};
        std::string label = "seed " + std::to_string(seed);
        switch (seed % 3) {
            case 1:
                s.master_degradation = true;
                label += " (master degradation)";
                break;
            case 2:
                s.equivocate_mask = 1ull << (1 + seed % 3);
                label += " (equivocation)";
                break;
            default:
                label += " (fault-free)";
                break;
        }
        expect_rbft_completes(s, label.c_str());
    }
}

// -- Chaos-soak liveness guard (exp/chaos) ----------------------------------

TEST(Liveness, BaselineStallIsNeverAPass) {
    // 0-vs-0 (or any stalled baseline) means "unmeasurable", not "held".
    EXPECT_FALSE(exp::liveness_recovered(0.0, 0.0, 2.0));
    EXPECT_FALSE(exp::liveness_recovered(5.0, 0.0, 2.0));
    EXPECT_TRUE(exp::liveness_recovered(1.0, 1.5, 2.0));
    EXPECT_TRUE(exp::liveness_recovered(2.0, 2.0, 1.0));
    EXPECT_FALSE(exp::liveness_recovered(0.5, 2.0, 2.0));
    EXPECT_FALSE(exp::liveness_recovered(0.0, 2.0, 2.0));
}

}  // namespace
}  // namespace rbft::check
