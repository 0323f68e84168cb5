// Chaos suite: the client scheduler under injected revocation, contention,
// registry churn, and estimation outages. Every scenario is seed-driven and
// asserts its exact failpoint activity via FailpointStats, so a regression in
// either the degraded paths or the determinism contract fails loudly.
#include "ishare/scheduler.hpp"

#include <gtest/gtest.h>

#include "chaos_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;
using test::steady_trace;

struct ScenarioResult {
  JobOutcome outcome;
  FailpointStats stats;
};

class SchedulerChaosTest : public ChaosTest {};

/// 30 %-per-attempt revocation: p per minute tick such that a ~2 h attempt is
/// revoked with probability ≈ 1 − 0.997^120 ≈ 0.30.
constexpr const char* kRevocationSpec =
    "gateway.execute.revoke=prob:0.003:45";

ScenarioResult run_revocation_scenario() {
  Failpoints::instance().reset();
  Failpoints::instance().arm_from_spec(kRevocationSpec);

  const MachineTrace trace = steady_trace("m0", 8);
  const auto service = std::make_shared<PredictionService>();
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);

  SchedulerConfig config;
  config.retry_delay = 120;
  config.backoff_factor = 2.0;
  config.max_retry_delay = 1800;
  const JobScheduler scheduler(registry, service, config);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 2 * 3600, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + kSecondsPerHour;
  CheckpointConfig checkpoint;
  checkpoint.fixed_interval = 1800;
  checkpoint.cost_seconds = 30;
  ScenarioResult result;
  result.outcome = scheduler.run_job(job, submit, submit + 20 * kSecondsPerHour,
                                     CheckpointMode::kFixed, checkpoint);
  result.stats = Failpoints::instance().stats();
  return result;
}

TEST_F(SchedulerChaosTest, CompletesUnderThirtyPercentRevocation) {
  const ScenarioResult result = run_revocation_scenario();
  EXPECT_TRUE(result.outcome.completed);
  const FailpointCounters* revoke =
      result.stats.find("gateway.execute.revoke");
  ASSERT_NE(revoke, nullptr);
  EXPECT_GT(revoke->evaluations, 0u);
  // The seed is chosen so the scenario actually exercises the retry path.
  EXPECT_GT(revoke->fires, 0u);
  EXPECT_EQ(result.outcome.failures,
            static_cast<int>(revoke->fires));
  EXPECT_EQ(result.outcome.attempts, static_cast<int>(revoke->fires) + 1);
}

TEST_F(SchedulerChaosTest, CompletesUnderInjectedContention) {
  const auto service = std::make_shared<PredictionService>();
  Failpoints::instance().arm_from_spec(
      "gateway.execute.contention=prob:0.004:6");
  const MachineTrace trace = steady_trace("m0", 8);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  SchedulerConfig config;
  config.backoff_factor = 2.0;
  const JobScheduler scheduler(registry, service, config);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + kSecondsPerHour;
  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + 20 * kSecondsPerHour);
  EXPECT_TRUE(outcome.completed);
  const FailpointStats stats = Failpoints::instance().stats();
  EXPECT_GT(stats.find("gateway.execute.contention")->fires, 0u);
}

TEST_F(SchedulerChaosTest, CompletesUnderRegistryChurn) {
  const auto service = std::make_shared<PredictionService>();
  // Half of all enumeration entries vanish, so many selection rounds see a
  // partial (sometimes empty) fleet; the scheduler must keep retrying.
  Failpoints::instance().arm_from_spec("registry.enumerate.drop=prob:0.5:55");
  const MachineTrace a = steady_trace("a", 8);
  const MachineTrace b = steady_trace("b", 8);
  Gateway ga(a, test::test_thresholds(), service);
  Gateway gb(b, test::test_thresholds(), service);
  Registry registry;
  registry.publish(ga);
  registry.publish(gb);
  const JobScheduler scheduler(registry, service);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + 12 * kSecondsPerHour);
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(Failpoints::instance().stats().find("registry.enumerate.drop")
                ->fires,
            0u);
}

TEST_F(SchedulerChaosTest, StaleLookupReturnsNullWithoutCrashing) {
  const auto service = std::make_shared<PredictionService>();
  Failpoints::instance().arm_from_spec("registry.lookup.stale=once");
  const MachineTrace trace = steady_trace("m0", 8);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  EXPECT_EQ(registry.lookup("m0"), nullptr);  // injected staleness
  EXPECT_EQ(registry.lookup("m0"), &gateway);
}

TEST_F(SchedulerChaosTest, SelectSkipsMachineWhosePredictionFails) {
  // A one-worker service probes in machine-id order; `once` kills the first
  // probe, so selection must degrade to the second machine instead of
  // throwing.
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const auto service =
      std::make_shared<PredictionService>(ServiceConfig{.max_threads = 1});
  const MachineTrace a = steady_trace("a", 8);
  const MachineTrace b = steady_trace("b", 8);
  Gateway ga(a, test::test_thresholds(), service);
  Gateway gb(b, test::test_thresholds(), service);
  Registry registry;
  registry.publish(ga);
  registry.publish(gb);
  const JobScheduler scheduler(registry, service);

  const SimTime now = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  Gateway* choice = scheduler.select_machine(now, kSecondsPerHour);
  EXPECT_EQ(choice, &gb);
  // With the `once` trigger consumed, the next probe sees the whole fleet.
  EXPECT_EQ(scheduler.select_machine(now, kSecondsPerHour), &ga);
}

TEST_F(SchedulerChaosTest, BatchedSelectSkipsFailedMachineWithoutReprobe) {
  // The probe fans out over the pool, so which machine `once` hits depends
  // on worker order. Either way the batch is not retried: one batch of two
  // lookups, and the choice is the machine that was predicted.
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const MachineTrace a = steady_trace("a", 8);
  const MachineTrace b = steady_trace("b", 8);
  const auto service = std::make_shared<PredictionService>();
  Gateway ga(a, test::test_thresholds(), service);
  Gateway gb(b, test::test_thresholds(), service);
  Registry registry;
  registry.publish(ga);
  registry.publish(gb);
  const JobScheduler scheduler(registry, service);

  const SimTime now = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  Gateway* choice = scheduler.select_machine(now, kSecondsPerHour);
  ASSERT_NE(choice, nullptr);
  EXPECT_EQ(Failpoints::instance().stats().find("service.estimate.fail")->fires,
            1u);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);  // only the surviving machine was estimated
  // The next probe sees the whole fleet again and picks the deterministic
  // best (ties resolve to the lowest machine id).
  EXPECT_EQ(scheduler.select_machine(now, kSecondsPerHour), &ga);
}

TEST_F(SchedulerChaosTest, TotalEstimationOutageGivesUpAtDeadline) {
  Failpoints::instance().arm_from_spec("service.estimate.fail=always");
  const auto service =
      std::make_shared<PredictionService>(ServiceConfig{.max_threads = 1});
  const MachineTrace trace = steady_trace("m0", 8);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  SchedulerConfig config;
  config.backoff_factor = 2.0;  // bound the number of idle retry rounds
  const JobScheduler scheduler(registry, service, config);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 600, .mem_mb = 64};
  const SimTime submit = 7 * kSecondsPerDay;
  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + 6 * kSecondsPerHour);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.attempts, 0);
  EXPECT_EQ(outcome.finish_time, submit + 6 * kSecondsPerHour);
}

}  // namespace
}  // namespace fgcs
