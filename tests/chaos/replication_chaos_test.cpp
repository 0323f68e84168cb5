// Chaos suite: replicated execution under churn — injected revocation and
// outright replica loss. The headline scenario shows the redundancy actually
// buying something: under churn, k replicas complete a job that a single
// no-retry placement loses.
#include "ishare/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos_support.hpp"
#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;
using test::steady_trace;

class ReplicationChaosTest : public ChaosTest {};

/// Aggressive churn: each running replica is revoked with ~1.8 %/minute, so
/// a one-hour attempt survives with probability ≈ 0.982^60 ≈ 1/3.
constexpr const char* kChurnSpec = "gateway.execute.revoke=prob:0.018:1";

/// Steady fleet probed through a shared PredictionService pinned to one
/// worker, so the batched fleet probe evaluates failpoints in machine-id
/// order and fault attribution is deterministic.
struct Fleet {
  std::vector<MachineTrace> traces;
  std::vector<Gateway> gateways;
  Registry registry;
  std::shared_ptr<PredictionService> service =
      std::make_shared<PredictionService>(ServiceConfig{.max_threads = 1});

  explicit Fleet(int machines) {
    for (int m = 0; m < machines; ++m) {
      std::string id = "m";
      id += std::to_string(m);
      traces.push_back(steady_trace(id, 8));
    }
    gateways.reserve(traces.size());
    for (const MachineTrace& trace : traces)
      gateways.emplace_back(trace, test::test_thresholds(), service);
    for (Gateway& gateway : gateways) registry.publish(gateway);
  }
};

TEST_F(ReplicationChaosTest, ReplicationBeatsSinglePlacementUnderChurn) {
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const SimTime give_up = submit + 6 * kSecondsPerHour;
  Fleet fleet(3);

  // Single placement, no retries: redundancy is the only failure response.
  Failpoints::instance().reset();
  Failpoints::instance().arm_from_spec(kChurnSpec);
  SchedulerConfig single_config;
  single_config.max_attempts = 1;
  const JobScheduler single(fleet.registry, fleet.service, single_config);
  const JobOutcome single_outcome = single.run_job(job, submit, give_up);

  // Same churn stream, replicated 3 ways.
  Failpoints::instance().reset();
  Failpoints::instance().arm_from_spec(kChurnSpec);
  const ReplicatingScheduler replicated(fleet.registry, fleet.service, 3);
  const ReplicatedOutcome replicated_outcome =
      replicated.run_job(job, submit, give_up);

  // The seed is chosen so the single placement is revoked; at this churn
  // rate at least one of three replicas survives and completes. (A failed
  // single run "finishes" at its revocation time, so response times are not
  // comparable across the two outcomes — the job simply never ran to
  // completion without redundancy.)
  EXPECT_FALSE(single_outcome.completed);
  ASSERT_TRUE(replicated_outcome.completed);
  EXPECT_GT(replicated_outcome.replicas_failed, 0);
  EXPECT_LT(replicated_outcome.finish_time, give_up);
  // The cost side of the trade: redundancy burns extra CPU.
  EXPECT_GT(replicated_outcome.total_cpu_spent, 0.0);
}

TEST_F(ReplicationChaosTest, SurvivesInjectedReplicaLoss) {
  Failpoints::instance().arm_from_spec("replication.replica.lost=once");
  Fleet fleet(2);
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service, 2);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 1800, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + 12 * kSecondsPerHour);

  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.replicas_started, 2);
  EXPECT_EQ(outcome.replicas_failed, 1);
  // The first-ranked replica was the one lost; the survivor won.
  EXPECT_EQ(Failpoints::instance().stats().find("replication.replica.lost")
                ->fires,
            1u);
}

TEST_F(ReplicationChaosTest, RankingSkipsUnpredictableMachines) {
  // The first probe (lowest machine id) fails; placement must continue with
  // the remaining machines instead of propagating the estimation error.
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  Fleet fleet(2);
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service, 2);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 900, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + 12 * kSecondsPerHour);

  ASSERT_TRUE(outcome.completed);
  // Only the predictable machine was ranked, so only one replica started.
  EXPECT_EQ(outcome.replicas_started, 1);
  EXPECT_EQ(outcome.winning_machine, "m1");
}

TEST_F(ReplicationChaosTest, AllReplicasLostReportsFailure) {
  Failpoints::instance().arm_from_spec("replication.replica.lost=always");
  Fleet fleet(2);
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service, 2);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 900, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const SimTime give_up = submit + 2 * kSecondsPerHour;
  const ReplicatedOutcome outcome = scheduler.run_job(job, submit, give_up);

  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.replicas_failed, 2);
  EXPECT_EQ(outcome.finish_time, give_up);
  EXPECT_EQ(outcome.total_cpu_spent, 0.0);
}

/// The planner's churn storm: ~30 % of planned replicas vanish at launch and
/// every 3rd fleet probe fails to estimate (same shape as the fgcs_chaos
/// planner scenario, compressed for test speed).
constexpr const char* kPlannerStormSpec =
    "replication.replica.lost=prob:0.3:1;service.estimate.fail=every:3";

TEST_F(ReplicationChaosTest, PlannerMeetsTargetOrDegradesUnderStorm) {
  Fleet fleet(4);
  PlannerConfig planner;
  planner.target_availability = 0.95;
  planner.max_replicas = 3;
  planner.fallback_replicas = 2;

  Failpoints::instance().reset();
  Failpoints::instance().arm_from_spec(kPlannerStormSpec);
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service,
                                       planner);
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  for (int j = 0; j < 4; ++j) {
    const GuestJobSpec job{.job_id = "j" + std::to_string(j),
                           .cpu_seconds = 1800,
                           .mem_mb = 64};
    const ReplicatedOutcome outcome =
        scheduler.run_job(job, submit, submit + 6 * kSecondsPerHour);
    ASSERT_TRUE(outcome.plan.has_value()) << "job " << j;
    const ReplicationPlan& plan = *outcome.plan;
    // Failed probes shrink the candidate pool, never the contract: a
    // feasible plan really meets A; an infeasible one is flagged as a
    // fallback with its shortfall reported, not silently downgraded.
    if (plan.feasible)
      EXPECT_GE(plan.achieved_availability, plan.target_availability)
          << "job " << j;
    else
      EXPECT_TRUE(plan.fallback) << "job " << j;
    EXPECT_EQ(static_cast<std::size_t>(outcome.replicas_started),
              plan.replicas.size())
        << "job " << j;
  }
  // 4 jobs x 4 probes = 16 evaluations; every:3 fires on 3,6,9,12,15.
  EXPECT_EQ(
      Failpoints::instance().stats().find("service.estimate.fail")->fires, 5u);
}

TEST_F(ReplicationChaosTest, AllProbeFailuresYieldReportedEmptyFallback) {
  // Every estimation fails: zero candidates reach the planner. The degraded
  // mode must be explicit — an infeasible fallback plan with no replicas and
  // a failed outcome — never a silent empty launch.
  Failpoints::instance().arm_from_spec("service.estimate.fail=always");
  Fleet fleet(3);
  PlannerConfig planner;
  planner.target_availability = 0.9;
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service,
                                       planner);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 900, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const SimTime give_up = submit + 2 * kSecondsPerHour;
  const ReplicatedOutcome outcome = scheduler.run_job(job, submit, give_up);

  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.replicas_started, 0);
  EXPECT_EQ(outcome.finish_time, give_up);
  ASSERT_TRUE(outcome.plan.has_value());
  EXPECT_FALSE(outcome.plan->feasible);
  EXPECT_TRUE(outcome.plan->fallback);
  EXPECT_TRUE(outcome.plan->replicas.empty());
  EXPECT_EQ(outcome.plan->achieved_availability, 0.0);
}

TEST_F(ReplicationChaosTest, BatchedPlanMatchesPredictorWhenHealthy) {
  // Nothing armed: the batched fleet probe through the shared service must
  // plan exactly like plan_replicas over the paper's per-call predictor.
  Fleet fleet(4);
  PlannerConfig planner;
  planner.target_availability = 0.95;
  planner.max_replicas = 3;
  planner.fallback_replicas = 2;
  const ReplicatingScheduler scheduler(fleet.registry, fleet.service, planner);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 1800, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const auto expected_wall = static_cast<SimTime>(
      job.cpu_seconds * SchedulerConfig{}.wall_time_factor);

  // Oracle: per-gateway AvailabilityPredictor TRs in the scheduler's
  // ranking order (TR descending, machine id ascending), planned directly.
  const AvailabilityPredictor predictor(EstimatorConfig{});
  std::vector<ReplicaCandidate> candidates;
  for (const Gateway& gateway : fleet.gateways) {
    const MachineTrace& history = gateway.state_manager().history();
    candidates.push_back(ReplicaCandidate{
        gateway.machine_id(),
        predictor
            .predict(history,
                     StateManager::job_request(history, submit, expected_wall))
            .temporal_reliability,
        1.0});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ReplicaCandidate& a, const ReplicaCandidate& b) {
              if (a.tr != b.tr) return a.tr > b.tr;
              return a.machine_id < b.machine_id;
            });
  const ReplicationPlan expected = plan_replicas(candidates, planner);

  // Run twice: the second fleet probe is answered entirely from the cache.
  for (int run = 0; run < 2; ++run) {
    const ReplicatedOutcome outcome =
        scheduler.run_job(job, submit, submit + 6 * kSecondsPerHour);
    ASSERT_TRUE(outcome.plan.has_value());
    const ReplicationPlan& plan = *outcome.plan;
    EXPECT_EQ(plan.feasible, expected.feasible);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.achieved_availability),
              std::bit_cast<std::uint64_t>(expected.achieved_availability));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.total_cost),
              std::bit_cast<std::uint64_t>(expected.total_cost));
    ASSERT_EQ(plan.replicas.size(), expected.replicas.size());
    for (std::size_t r = 0; r < plan.replicas.size(); ++r) {
      EXPECT_EQ(plan.replicas[r].machine_id, expected.replicas[r].machine_id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.replicas[r].tr),
                std::bit_cast<std::uint64_t>(expected.replicas[r].tr));
    }
  }
  const ServiceStats stats = fleet.service->stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
}

}  // namespace
}  // namespace fgcs
