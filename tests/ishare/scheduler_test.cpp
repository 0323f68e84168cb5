#include "ishare/scheduler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/predictor.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

/// Machine whose weekday mornings always overload 10:00–12:00.
MachineTrace unreliable_trace(const std::string& id, int days) {
  MachineTrace trace(id, Calendar(0), 60, 512);
  for (int d = 0; d < days; ++d) {
    auto day = constant_day(60, 10);
    for (std::size_t i = 10 * 60; i < 12 * 60; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  return trace;
}

MachineTrace reliable_trace(const std::string& id, int days) {
  MachineTrace trace(id, Calendar(0), 60, 512);
  for (int d = 0; d < days; ++d) trace.append_day(constant_day(60, 10));
  return trace;
}

TEST(JobSchedulerTest, SelectsTheMoreReliableMachine) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace good = reliable_trace("good", 8);
  const MachineTrace bad = unreliable_trace("bad", 8);
  Gateway g_good(good, test::test_thresholds(), service);
  Gateway g_bad(bad, test::test_thresholds(), service);
  Registry registry;
  registry.publish(g_bad);
  registry.publish(g_good);

  const JobScheduler scheduler(registry, service);
  const SimTime now = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  Gateway* choice = scheduler.select_machine(now, 4 * kSecondsPerHour);
  ASSERT_NE(choice, nullptr);
  EXPECT_EQ(choice->machine_id(), "good");
}

TEST(JobSchedulerTest, BatchedSelectionMatchesPredictor) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace good = reliable_trace("good", 8);
  const MachineTrace bad = unreliable_trace("bad", 8);
  Gateway g_good(good, test::test_thresholds(), service);
  Gateway g_bad(bad, test::test_thresholds(), service);
  Registry registry;
  registry.publish(g_bad);
  registry.publish(g_good);
  const JobScheduler scheduler(registry, service);

  // Oracle: the paper's per-call predictor on each gateway's history, and
  // the first strict maximum in registry (machine id) order.
  const AvailabilityPredictor predictor(EstimatorConfig{});
  for (const SimTime hour : {8, 9, 11, 15}) {
    const SimTime now = 7 * kSecondsPerDay + hour * kSecondsPerHour;
    for (const SimTime duration : {kSecondsPerHour, 4 * kSecondsPerHour}) {
      Gateway* expected = nullptr;
      double expected_tr = -1.0;
      for (Gateway* gateway : registry.gateways()) {
        const MachineTrace& history = gateway->state_manager().history();
        const double tr =
            predictor
                .predict(history,
                         StateManager::job_request(history, now, duration))
                .temporal_reliability;
        if (tr > expected_tr) {
          expected_tr = tr;
          expected = gateway;
        }
      }
      ASSERT_NE(expected, nullptr);
      // Probe twice: the repeat is answered entirely from the cache.
      for (int probe = 0; probe < 2; ++probe) {
        Gateway* actual = scheduler.select_machine(now, duration);
        ASSERT_NE(actual, nullptr);
        EXPECT_EQ(actual->machine_id(), expected->machine_id());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      actual->query_reliability(now, duration)),
                  std::bit_cast<std::uint64_t>(expected_tr));
      }
    }
  }
  // Each (machine, window) misses once on the first probe; the second probe
  // and both query_reliability reads of the winner hit.
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.hits, 16u + 16u);
}

TEST(JobSchedulerTest, EmptyRegistryGivesNoMachine) {
  const auto service = std::make_shared<PredictionService>();
  Registry registry;
  const JobScheduler scheduler(registry, service);
  EXPECT_EQ(scheduler.select_machine(0, 3600), nullptr);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 100, .mem_mb = 50};
  const JobOutcome outcome = scheduler.run_job(job, 60, 86400);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.attempts, 0);
}

TEST(JobSchedulerTest, CompletesJobOnReliableMachine) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace good = reliable_trace("good", 8);
  Gateway gateway(good, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  const JobScheduler scheduler(registry, service);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3600, .mem_mb = 100};
  const SimTime submit = 6 * kSecondsPerDay + 9 * kSecondsPerHour;
  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.failures, 0);
  EXPECT_EQ(outcome.machines_used, std::vector<std::string>{"good"});
  EXPECT_GT(outcome.response_time(), 3600);
  EXPECT_LT(outcome.response_time(), 2 * 3600);
}

TEST(JobSchedulerTest, RestartsAfterFailureAndEventuallyCompletes) {
  const auto service = std::make_shared<PredictionService>();
  // Only an unreliable machine is available: a 3-CPU-hour job submitted at
  // 9:00 dies at 10:01 and must be restarted (from scratch) after the
  // overload clears; it completes in the afternoon.
  const MachineTrace bad = unreliable_trace("bad", 8);
  Gateway gateway(bad, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  SchedulerConfig config;
  config.retry_delay = 600;
  const JobScheduler scheduler(registry, service, config);

  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 3 * 3600, .mem_mb = 100};
  const SimTime submit = 7 * kSecondsPerDay + 9 * kSecondsPerHour;
  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.failures, 0);
  EXPECT_GT(outcome.attempts, 1);
}

TEST(JobSchedulerTest, CheckpointingReducesResponseTimeOnFlakyMachine) {
  const auto service = std::make_shared<PredictionService>();
  const MachineTrace bad = unreliable_trace("bad", 8);
  Gateway gateway(bad, test::test_thresholds(), service);
  Registry registry;
  registry.publish(gateway);
  SchedulerConfig config;
  config.retry_delay = 300;  // keep the retry count well under max_attempts
  const JobScheduler scheduler(registry, service, config);

  // 6-CPU-hour job straddling the daily overload.
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 6 * 3600, .mem_mb = 100};
  const SimTime submit = 7 * kSecondsPerDay + 6 * kSecondsPerHour;
  CheckpointConfig checkpoint;
  checkpoint.fixed_interval = 1800;
  checkpoint.cost_seconds = 30;

  const JobOutcome without = scheduler.run_job(
      job, submit, submit + kSecondsPerDay, CheckpointMode::kNone);
  const JobOutcome with = scheduler.run_job(
      job, submit, submit + kSecondsPerDay, CheckpointMode::kFixed, checkpoint);

  ASSERT_TRUE(without.completed);
  ASSERT_TRUE(with.completed);
  EXPECT_GT(with.checkpoints_taken, 0);
  EXPECT_LT(with.response_time(), without.response_time());
}

TEST(JobSchedulerTest, ValidatesConfigAndArguments) {
  const auto service = std::make_shared<PredictionService>();
  Registry registry;
  EXPECT_THROW(JobScheduler(registry, nullptr), PreconditionError);
  EXPECT_THROW(
      JobScheduler(registry, service, SchedulerConfig{.max_attempts = 0}),
      PreconditionError);
  EXPECT_THROW(
      JobScheduler(registry, service, SchedulerConfig{.backoff_factor = 0.5}),
      PreconditionError);
  EXPECT_THROW(
      JobScheduler(registry, service, SchedulerConfig{.backoff_jitter = 1.0}),
      PreconditionError);
  const JobScheduler scheduler(registry, service);
  const GuestJobSpec job{.job_id = "j", .cpu_seconds = 10, .mem_mb = 10};
  EXPECT_THROW(scheduler.run_job(job, 100, 100), PreconditionError);
}

TEST(RetryBackoffTest, FactorOneReproducesLegacyFixedDelay) {
  SchedulerConfig config;
  config.retry_delay = 60;
  Rng rng(1);
  const Rng untouched(1);
  for (int retry = 0; retry < 20; ++retry)
    EXPECT_EQ(retry_backoff_delay(config, retry, rng), 60);
  // Legacy mode must never consume randomness: the stream is untouched.
  Rng probe = rng;
  Rng reference = untouched;
  EXPECT_EQ(probe.uniform(0.0, 1.0), reference.uniform(0.0, 1.0));
}

TEST(RetryBackoffTest, GrowsExponentiallyWithoutJitter) {
  SchedulerConfig config;
  config.retry_delay = 60;
  config.backoff_factor = 2.0;
  config.backoff_jitter = 0.0;
  config.max_retry_delay = 100000;
  Rng rng(1);
  EXPECT_EQ(retry_backoff_delay(config, 0, rng), 60);
  EXPECT_EQ(retry_backoff_delay(config, 1, rng), 120);
  EXPECT_EQ(retry_backoff_delay(config, 2, rng), 240);
  EXPECT_EQ(retry_backoff_delay(config, 3, rng), 480);
}

TEST(RetryBackoffTest, CapsAtMaxRetryDelay) {
  SchedulerConfig config;
  config.retry_delay = 60;
  config.backoff_factor = 2.0;
  config.backoff_jitter = 0.0;
  config.max_retry_delay = 300;
  Rng rng(1);
  EXPECT_EQ(retry_backoff_delay(config, 2, rng), 240);
  EXPECT_EQ(retry_backoff_delay(config, 3, rng), 300);
  EXPECT_EQ(retry_backoff_delay(config, 30, rng), 300);
}

TEST(RetryBackoffTest, JitterNeverExceedsMaxRetryDelay) {
  // The cap is a hard bound, jitter included: once the exponential curve
  // saturates, an upward jitter draw must not push the pause past it.
  SchedulerConfig config;
  config.retry_delay = 100;
  config.backoff_factor = 2.0;
  config.backoff_jitter = 0.5;
  config.max_retry_delay = 300;
  Rng rng(2026);
  bool saw_upward_draw = false;
  for (int retry = 0; retry < 40; ++retry) {
    const SimTime delay = retry_backoff_delay(config, retry, rng);
    EXPECT_LE(delay, config.max_retry_delay) << "retry " << retry;
    if (retry >= 2 && delay == config.max_retry_delay) saw_upward_draw = true;
  }
  // With jitter 0.5 over 40 saturated retries, some draw lands at or above
  // the cap — otherwise this test never exercised the clamp.
  EXPECT_TRUE(saw_upward_draw);
}

TEST(RetryBackoffTest, JitterIsBoundedAndSeedDeterministic) {
  SchedulerConfig config;
  config.retry_delay = 1000;
  config.backoff_factor = 2.0;
  config.backoff_jitter = 0.2;
  config.max_retry_delay = 1000000;
  Rng first(42);
  Rng second(42);
  for (int retry = 0; retry < 10; ++retry) {
    const double nominal = 1000.0 * std::pow(2.0, retry);
    const SimTime a = retry_backoff_delay(config, retry, first);
    const SimTime b = retry_backoff_delay(config, retry, second);
    EXPECT_EQ(a, b);  // same seed, same stream position → same delay
    EXPECT_GE(static_cast<double>(a), nominal * 0.8 - 1.0);
    EXPECT_LE(static_cast<double>(a), nominal * 1.2 + 1.0);
  }
  // Different seed → (almost surely) a different jittered sequence.
  Rng other(43);
  bool any_difference = false;
  for (int retry = 0; retry < 10; ++retry) {
    Rng replay(42);
    for (int skip = 0; skip < retry; ++skip)
      retry_backoff_delay(config, skip, replay);
    if (retry_backoff_delay(config, retry, other) !=
        retry_backoff_delay(config, retry, replay))
      any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace fgcs
