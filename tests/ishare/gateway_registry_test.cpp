#include <gtest/gtest.h>

#include "ishare/gateway.hpp"
#include "ishare/registry.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(RegistryTest, PublishLookupUnpublish) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = test::constant_trace(3, 10, 60);
  Gateway gateway(trace, test::test_thresholds(), service);
  Registry registry;
  EXPECT_EQ(registry.size(), 0u);
  registry.publish(gateway);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.lookup("test"), &gateway);
  EXPECT_EQ(registry.lookup("missing"), nullptr);
  EXPECT_TRUE(registry.unpublish("test"));
  EXPECT_FALSE(registry.unpublish("test"));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, GatewaysOrderedById) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace a = test::constant_trace(2, 10, 60);
  MachineTrace b("alpha", Calendar(0), 60, 512);
  b.append_day(constant_day(60, 10));
  Gateway ga(a, test::test_thresholds(), service);
  Gateway gb(b, test::test_thresholds(), service);
  Registry registry;
  registry.publish(ga);
  registry.publish(gb);
  const auto all = registry.gateways();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->machine_id(), "alpha");
  EXPECT_EQ(all[1]->machine_id(), "test");
}

TEST(GatewayTest, ExecuteCompletesOnIdleMachine) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = test::constant_trace(3, 5, 60);
  const Gateway gateway(trace, test::test_thresholds(), service);
  // 1 CPU-hour on a 95%-idle machine: done in about 3790 wall seconds.
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 100};
  const SimTime start = 2 * kSecondsPerDay + 9 * kSecondsPerHour;
  const ExecutionResult r = gateway.execute(job, start, start + kSecondsPerDay);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_NEAR(static_cast<double>(r.end_time - start), 3600.0 / 0.95, 120.0);
  EXPECT_DOUBLE_EQ(r.progress_seconds, 3600.0);
}

TEST(GatewayTest, ExecuteFailsOnSteadyOverload) {
  const auto service = std::make_shared<PredictionService>();
  MachineTrace trace("m", Calendar(0), 60, 512);
  trace.append_day(constant_day(60, 10));
  auto day1 = constant_day(60, 10);
  for (std::size_t i = 10 * 60; i < 12 * 60; ++i) day1[i] = sample(95);
  trace.append_day(std::move(day1));

  const Gateway gateway(trace, test::test_thresholds(), service);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 4 * 3600, .mem_mb = 100};
  const SimTime start = kSecondsPerDay + 9 * kSecondsPerHour;
  const ExecutionResult r = gateway.execute(job, start, start + kSecondsPerDay);
  EXPECT_FALSE(r.completed);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, State::kS3);
  // Killed one transient-limit after the overload began at 10:00.
  EXPECT_NEAR(static_cast<double>(r.end_time),
              static_cast<double>(kSecondsPerDay + 10 * kSecondsPerHour + 60),
              120.0);
  EXPECT_DOUBLE_EQ(r.saved_progress_seconds, 0.0);  // no checkpointing
}

TEST(GatewayTest, FixedCheckpointingPreservesProgress) {
  const auto service = std::make_shared<PredictionService>();
  MachineTrace trace("m", Calendar(0), 60, 512);
  trace.append_day(constant_day(60, 5));
  auto day1 = constant_day(60, 5);
  for (std::size_t i = 11 * 60; i < 13 * 60; ++i) day1[i] = sample(95);
  trace.append_day(std::move(day1));

  const Gateway gateway(trace, test::test_thresholds(), service);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 6 * 3600, .mem_mb = 100};
  CheckpointConfig checkpoint;
  checkpoint.fixed_interval = 1800;
  checkpoint.cost_seconds = 30;
  const SimTime start = kSecondsPerDay + 9 * kSecondsPerHour;
  const ExecutionResult r =
      gateway.execute(job, start, start + kSecondsPerDay,
                      CheckpointMode::kFixed, checkpoint);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.checkpoints_taken, 2);
  // Roughly two hours of work minus checkpoint costs were preserved.
  EXPECT_GT(r.saved_progress_seconds, 3600.0);
  EXPECT_LE(r.saved_progress_seconds, 2.0 * 3600.0);
}

TEST(GatewayTest, AdaptiveCheckpointIntervalFollowsPredictedTr) {
  const auto service = std::make_shared<PredictionService>();
  // On an always-idle machine TR is 1, so an adaptive policy with a low
  // tr_low threshold uses the long interval, while tr_low > 1 forces the
  // short interval everywhere; checkpoint counts must reflect that.
  const MachineTrace trace = test::constant_trace(8, 5, 60);
  const Gateway gateway(trace, test::test_thresholds(), service);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 8 * 3600, .mem_mb = 64};
  const SimTime start = 7 * kSecondsPerDay + 8 * kSecondsPerHour;

  CheckpointConfig relaxed;
  relaxed.tr_low = 0.5;           // TR = 1 ≥ 0.5 → long interval (5400 s)
  relaxed.short_interval = 300;
  relaxed.long_interval = 5400;
  const ExecutionResult calm = gateway.execute(
      job, start, start + kSecondsPerDay, CheckpointMode::kAdaptive, relaxed);

  CheckpointConfig paranoid = relaxed;
  paranoid.tr_low = 1.1;          // TR < 1.1 always → short interval (300 s)
  const ExecutionResult nervous = gateway.execute(
      job, start, start + kSecondsPerDay, CheckpointMode::kAdaptive, paranoid);

  ASSERT_TRUE(calm.completed);
  ASSERT_TRUE(nervous.completed);
  EXPECT_GT(calm.checkpoints_taken, 0);
  EXPECT_GT(nervous.checkpoints_taken, 3 * calm.checkpoints_taken);
}

TEST(GatewayTest, CheckpointCostDelaysCompletion) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = test::constant_trace(6, 5, 60);
  const Gateway gateway(trace, test::test_thresholds(), service);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 4 * 3600, .mem_mb = 64};
  const SimTime start = 5 * kSecondsPerDay + 8 * kSecondsPerHour;

  const ExecutionResult plain =
      gateway.execute(job, start, start + kSecondsPerDay);
  CheckpointConfig config;
  config.fixed_interval = 600;
  config.cost_seconds = 120;
  const ExecutionResult checkpointed = gateway.execute(
      job, start, start + kSecondsPerDay, CheckpointMode::kFixed, config);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(checkpointed.completed);
  EXPECT_GT(checkpointed.end_time, plain.end_time);
}

TEST(GatewayTest, QueryReliabilityUsesHistory) {
  const auto service = std::make_shared<PredictionService>();
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 6; ++d) {
    auto day = constant_day(60, 10);
    if (d % 2 == 1)
      for (std::size_t i = 9 * 60; i < 11 * 60; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  const Gateway gateway(trace, test::test_thresholds(), service);
  // Day 4 is a weekday (Monday epoch): training uses weekdays 0–3, of which
  // two carry the 9:00–11:00 overload.
  const SimTime now = 4 * kSecondsPerDay + 8 * kSecondsPerHour + 1800;
  const double tr = gateway.query_reliability(now, 4 * kSecondsPerHour);
  EXPECT_GT(tr, 0.0);
  EXPECT_LT(tr, 1.0);
}

TEST(GatewayTest, ExecuteValidatesArguments) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace trace = test::constant_trace(2, 10, 60);
  const Gateway gateway(trace, test::test_thresholds(), service);
  GuestJobSpec job{.job_id = "j", .cpu_seconds = 10, .mem_mb = 100};
  EXPECT_THROW(gateway.execute(job, 100, 100), PreconditionError);
  job.cpu_seconds = 0;
  EXPECT_THROW(gateway.execute(job, 0, 100), PreconditionError);
}

}  // namespace
}  // namespace fgcs
