#include "ishare/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

// Friday 09:00 (Monday epoch): four earlier weekdays of history to predict
// from. A Saturday has no same-type training day, and the scheduler skips a
// machine it cannot predict.
constexpr SimTime kFridayMorning = 4 * kSecondsPerDay + 9 * kSecondsPerHour;

MachineTrace idle_trace(const std::string& id, int days, int load_pct = 5) {
  MachineTrace trace(id, Calendar(0), 60, 512);
  for (int d = 0; d < days; ++d) trace.append_day(constant_day(60, load_pct));
  return trace;
}

TEST(ReplicationTest, SingleReplicaCompletesLikePlainExecution) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = idle_trace("only", 6);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  const ReplicatingScheduler scheduler(registry, service, 1);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 1800, .mem_mb = 64};
  const SimTime submit = kFridayMorning;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.replicas_started, 1);
  EXPECT_EQ(outcome.winning_machine, "only");
}

TEST(ReplicationTest, FirstCompletionWins) {
  const auto service = std::make_shared<PredictionService>();
  // A fast (idle) machine and a slow (busy but available) one.
  const MachineTrace fast = idle_trace("fast", 6, 5);
  const MachineTrace slow = idle_trace("slow", 6, 55);  // S2: less idle
  Gateway g_fast(fast, test::test_thresholds(), service);
  Gateway g_slow(slow, test::test_thresholds(), service);
  Registry registry;
  registry.publish(g_fast);
  registry.publish(g_slow);
  const ReplicatingScheduler scheduler(registry, service, 2);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 64};
  const SimTime submit = kFridayMorning;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.winning_machine, "fast");
  EXPECT_EQ(outcome.replicas_started, 2);
  // The redundancy costs extra CPU beyond the job itself.
  EXPECT_GT(outcome.total_cpu_spent, job.cpu_seconds);
}

TEST(ReplicationTest, SurvivesSingleMachineFailure) {
  const auto service = std::make_shared<PredictionService>();
  // One machine dies mid-morning every day; the other is clean.
  MachineTrace flaky("flaky", Calendar(0), 60, 512);
  for (int d = 0; d < 6; ++d) {
    auto day = constant_day(60, 5);
    for (std::size_t i = 10 * 60; i < 12 * 60; ++i) day[i] = sample(95);
    flaky.append_day(std::move(day));
  }
  const MachineTrace clean = idle_trace("clean", 6);
  Gateway g_flaky(flaky, test::test_thresholds(), service);
  Gateway g_clean(clean, test::test_thresholds(), service);
  Registry registry;
  registry.publish(g_flaky);
  registry.publish(g_clean);
  const ReplicatingScheduler scheduler(registry, service, 2);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 4 * 3600, .mem_mb = 64};
  const SimTime submit = kFridayMorning;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.winning_machine, "clean");
  EXPECT_EQ(outcome.replicas_failed, 1);  // the flaky one was lost
}

TEST(ReplicationTest, MoreReplicasThanMachinesIsClamped) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = idle_trace("m", 4);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  const ReplicatingScheduler scheduler(registry, service, 5);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 600, .mem_mb = 64};
  const SimTime submit = 3 * kSecondsPerDay;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  EXPECT_EQ(outcome.replicas_started, 1);
}

TEST(ReplicationTest, PlannerCountsPlansItCouldNotProveOptimal) {
  // 48 machines sharing one history that is down 09:30–10:30 every other
  // day: every TR is 0.5, and A = 1 − 0.5^6 leaves C(48, 6) tied 6-sets —
  // more than the planner's node budget.
  std::vector<MachineTrace> traces;
  for (int m = 0; m < 48; ++m) {
    MachineTrace trace((m < 10 ? "m0" : "m") + std::to_string(m), Calendar(0),
                       60, 512);
    for (int d = 0; d < 8; ++d) {
      std::vector<ResourceSample> day = constant_day(60, 5);
      if (d % 2 == 1)
        std::fill(day.begin() + 9 * 60 + 30, day.begin() + 10 * 60 + 30,
                  sample(5, 400, false));
      trace.append_day(day);
    }
    traces.push_back(std::move(trace));
  }
  const auto service = std::make_shared<PredictionService>();
  std::vector<Gateway> gateways;
  gateways.reserve(traces.size());
  Registry registry;
  for (const MachineTrace& trace : traces)
    registry.publish(
        gateways.emplace_back(trace, test::test_thresholds(), service));
  PlannerConfig planner;
  planner.target_availability = 1.0 - 1.0 / 64.0;
  planner.max_replicas = 8;
  const ReplicatingScheduler scheduler(registry, service, planner);

  Counter& total = MetricsRegistry::global().counter("replication.plans.total");
  Counter& unproven =
      MetricsRegistry::global().counter("replication.plans.unproven.total");
  const std::uint64_t total_before = total.value();
  const std::uint64_t unproven_before = unproven.value();
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 64};
  const SimTime submit = 8 * kSecondsPerDay + 9 * kSecondsPerHour;
  const ReplicatedOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  ASSERT_TRUE(outcome.plan.has_value());
  ASSERT_EQ(outcome.plan->replicas.front().tr, 0.5);
  EXPECT_TRUE(outcome.plan->feasible);
  EXPECT_EQ(outcome.plan->replicas.size(), 6u);
  EXPECT_FALSE(outcome.plan->optimal);
  EXPECT_EQ(total.value() - total_before, 1u);
  EXPECT_EQ(unproven.value() - unproven_before, 1u);
}

TEST(ReplicationTest, ValidatesArguments) {
  const auto service = std::make_shared<PredictionService>();
  Registry registry;
  EXPECT_THROW(ReplicatingScheduler(registry, service, 0), PreconditionError);
  EXPECT_THROW(ReplicatingScheduler(registry, nullptr, 1), PreconditionError);
  EXPECT_THROW(ReplicatingScheduler(registry, nullptr, PlannerConfig{}),
               PreconditionError);
  EXPECT_THROW(ReplicatingScheduler(registry, service,
                                    PlannerConfig{.max_replicas = 0}),
               PreconditionError);
  const ReplicatingScheduler scheduler(registry, service, 1);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 600, .mem_mb = 64};
  EXPECT_THROW(scheduler.run_job(job, 100, 100), PreconditionError);
  // Empty registry: no replicas, not completed.
  const ReplicatedOutcome outcome = scheduler.run_job(job, 0, 1000);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.replicas_started, 0);
}

}  // namespace
}  // namespace fgcs
