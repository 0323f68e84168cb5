#include "core/prediction_service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

// Light load, with a steady overload on alternating mornings so the TR is a
// non-trivial value that would expose any cache-path divergence.
MachineTrace flaky_trace(const std::string& id, int days = 10) {
  MachineTrace trace(id, Calendar(0), 60, 512);
  for (int d = 0; d < days; ++d) {
    auto day = constant_day(60, 10);
    if (d % 2 == 0)
      for (std::size_t i = 9 * 60; i < 10 * 60; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  return trace;
}

TimeWindow morning_window() {
  return {.start_of_day = 8 * kSecondsPerHour, .length = 3 * kSecondsPerHour};
}

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.temporal_reliability, b.temporal_reliability);
  EXPECT_EQ(a.initial_state, b.initial_state);
  EXPECT_EQ(a.p_absorb, b.p_absorb);
  EXPECT_EQ(a.training_days_used, b.training_days_used);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(PredictionServiceTest, WarmHitIsBitIdenticalToColdCall) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const PredictionRequest request{.target_day = trace.day_count(),
                                  .window = morning_window()};
  const Prediction cold = service.predict(trace, request);
  const Prediction warm = service.predict(trace, request);
  expect_identical(cold, warm);
  // A hit returns the stored Prediction verbatim, timings included.
  EXPECT_EQ(cold.estimate_seconds, warm.estimate_seconds);
  EXPECT_EQ(cold.solve_seconds, warm.solve_seconds);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PredictionServiceTest, MatchesPerCallPredictorExactly) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const AvailabilityPredictor predictor(service.config().estimator);
  for (const SimTime start_hr : {7, 8, 9, 12}) {
    const PredictionRequest request{
        .target_day = trace.day_count(),
        .window = {.start_of_day = start_hr * kSecondsPerHour,
                   .length = 2 * kSecondsPerHour}};
    const Prediction direct = predictor.predict(trace, request);
    expect_identical(direct, service.predict(trace, request));   // cold
    expect_identical(direct, service.predict(trace, request));   // warm
  }
  EXPECT_LT(service.predict(trace, {.target_day = trace.day_count(),
                                    .window = morning_window()})
                .temporal_reliability,
            1.0);
}

// The model is validated exactly once, inside the one curve build on the
// miss. Every warm lookup — the same initial state or the other one — is a
// hit that copies a stored Prediction: no solver, no SmpModel::validate.
TEST(PredictionServiceTest, WarmLookupsNeverRevalidateTheModel) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const PredictionRequest request{.target_day = trace.day_count(),
                                  .window = morning_window()};
  service.predict(trace, request);  // cold: estimate + validate + curve build

  const std::uint64_t warm_start = smp_validate_calls();
  service.predict(trace, request);  // hit
  PredictionRequest other = request;
  other.initial_state = State::kS2;
  service.predict(trace, other);  // hit: the miss filled the S2 slot too
  service.predict(trace, other);  // hit
  EXPECT_EQ(smp_validate_calls(), warm_start);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

// One miss fills both initial states' Predictions; the second initial state
// is a hit, and both come out bit-identical to the per-call predictor.
TEST(PredictionServiceTest, BothInitialStatesMatchPredictorFromOneMiss) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const AvailabilityPredictor predictor(service.config().estimator);
  for (const State init : {State::kS1, State::kS2}) {
    PredictionRequest request{.target_day = trace.day_count(),
                              .window = morning_window()};
    request.initial_state = init;
    const Prediction direct = predictor.predict(trace, request);
    const Prediction served = service.predict(trace, request);
    expect_identical(direct, served);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PredictionServiceTest, InvalidateDropsExactlyThatMachine) {
  MachineTrace a = flaky_trace("a");
  const MachineTrace b = flaky_trace("b");
  PredictionService service;
  const PredictionRequest request{.target_day = 10,
                                  .window = morning_window()};
  service.predict(a, request);
  service.predict(b, request);
  EXPECT_EQ(service.size(), 2u);

  a.append_day(constant_day(60, 10));
  service.invalidate("a");
  EXPECT_EQ(service.history_generation("a"), 1u);
  EXPECT_EQ(service.history_generation("b"), 0u);
  // Nothing is swept: a's old entry is unreachable, not gone.
  EXPECT_EQ(service.size(), 2u);

  service.predict(b, request);  // still warm
  service.predict(a, request);  // recomputed under the new generation
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(PredictionServiceTest, RevalidationCatchesChangedTrainingDays) {
  // Target days 10 and 8 share a day type but select different training-day
  // sets; the second lookup must drop the cached model, not reuse it.
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const AvailabilityPredictor predictor(service.config().estimator);
  const PredictionRequest day10{.target_day = 10, .window = morning_window()};
  const PredictionRequest day8{.target_day = 8, .window = morning_window()};
  ASSERT_EQ(trace.day_type(10), trace.day_type(8));

  expect_identical(predictor.predict(trace, day10),
                   service.predict(trace, day10));
  expect_identical(predictor.predict(trace, day8),
                   service.predict(trace, day8));
  EXPECT_EQ(service.stats().stale_drops, 1u);
  EXPECT_EQ(service.stats().misses, 2u);
}

TEST(PredictionServiceTest, TimingCountersRegisterFastColdCalls) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  service.predict(trace, {.target_day = trace.day_count(),
                          .window = morning_window()});
  const ServiceStats stats = service.stats();
  // Nanosecond accumulation: a single sub-millisecond cold call must leave a
  // nonzero trace (the old microsecond truncation rounded sub-µs phases to
  // zero, systematically under-reporting the aggregate).
  EXPECT_GT(stats.estimate_seconds, 0.0);
  EXPECT_GT(stats.solve_seconds, 0.0);
  // The stats snapshot also carries the process-wide pool's counters.
  EXPECT_GE(stats.pool.workers, 1u);
}

TEST(PredictionServiceTest, SecondInitialStateIsHit) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service;
  const AvailabilityPredictor predictor(service.config().estimator);
  PredictionRequest request{.target_day = 10, .window = morning_window()};
  request.initial_state = State::kS1;
  const Prediction s1 = service.predict(trace, request);
  expect_identical(predictor.predict(trace, request), s1);
  request.initial_state = State::kS2;
  const Prediction s2 = service.predict(trace, request);
  expect_identical(predictor.predict(trace, request), s2);
  // Both slots carry the timings of the one estimate and build.
  EXPECT_EQ(s1.estimate_seconds, s2.estimate_seconds);
  EXPECT_EQ(s1.solve_seconds, s2.solve_seconds);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(service.size(), 1u);
}

TEST(PredictionServiceTest, BatchUnderEightThreadsMatchesSerial) {
  WorkloadParams params;
  params.sampling_period = 60;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, 42, 4, 12, "svc");

  std::vector<BatchRequest> requests;
  for (const MachineTrace& trace : fleet) {
    for (const SimTime start_hr : {7, 9, 11, 13, 15, 17}) {
      requests.push_back(BatchRequest{
          .trace = &trace,
          .request = {.target_day = trace.day_count(),
                      .window = {.start_of_day = start_hr * kSecondsPerHour,
                                 .length = 2 * kSecondsPerHour}}});
    }
  }

  PredictionService service(ServiceConfig{.max_threads = 8});
  const std::vector<Prediction> cold = service.predict_batch(requests);
  const std::vector<Prediction> warm = service.predict_batch(requests);

  const AvailabilityPredictor predictor(service.config().estimator);
  ASSERT_EQ(cold.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Prediction serial =
        predictor.predict(*requests[i].trace, requests[i].request);
    expect_identical(serial, cold[i]);
    expect_identical(serial, warm[i]);
  }
}

TEST(PredictionServiceTest, StatsCountersAddUp) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service(ServiceConfig{.max_threads = 8});
  std::vector<BatchRequest> requests;
  for (const SimTime start_hr : {6, 8, 10, 12}) {
    requests.push_back(BatchRequest{
        .trace = &trace,
        .request = {.target_day = trace.day_count(),
                    .window = {.start_of_day = start_hr * kSecondsPerHour,
                               .length = kSecondsPerHour}}});
  }
  service.predict_batch(requests);
  service.predict_batch(requests);
  service.predict(trace, requests.front().request);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.lookups, 9u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_requests, 8u);
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PredictionServiceTest, LruEvictsBeyondCapacity) {
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service(
      ServiceConfig{.shards = 1, .capacity_per_shard = 2});
  for (const SimTime start_hr : {6, 8, 10}) {
    service.predict(trace,
                    {.target_day = trace.day_count(),
                     .window = {.start_of_day = start_hr * kSecondsPerHour,
                                .length = kSecondsPerHour}});
  }
  EXPECT_EQ(service.size(), 2u);
  EXPECT_EQ(service.stats().evictions, 1u);
  // The least recently used window (06:00) was the one evicted.
  service.predict(trace, {.target_day = trace.day_count(),
                          .window = {.start_of_day = 6 * kSecondsPerHour,
                                     .length = kSecondsPerHour}});
  EXPECT_EQ(service.stats().misses, 4u);
}

TEST(PredictionServiceTest, DeadGenerationEntryIsNeverServedAndAgesOut) {
  // invalidate() without new days: the training days still match, so only
  // the generation in the key keeps the old entry from being served.
  const MachineTrace trace = flaky_trace("m1");
  PredictionService service(
      ServiceConfig{.shards = 1, .capacity_per_shard = 2});
  const AvailabilityPredictor predictor(service.config().estimator);
  const PredictionRequest morning{.target_day = 10,
                                  .window = morning_window()};
  const PredictionRequest evening{
      .target_day = 10,
      .window = {.start_of_day = 18 * kSecondsPerHour,
                 .length = kSecondsPerHour}};
  service.predict(trace, morning);
  service.invalidate("m1");
  expect_identical(predictor.predict(trace, morning),
                   service.predict(trace, morning));
  EXPECT_EQ(service.stats().hits, 0u);
  EXPECT_EQ(service.stats().misses, 2u);
  EXPECT_EQ(service.size(), 2u);  // the dead entry plus its replacement

  // The dead entry is the least recently used, so capacity evicts it.
  service.predict(trace, evening);
  EXPECT_EQ(service.size(), 2u);
  EXPECT_EQ(service.stats().evictions, 1u);
  service.predict(trace, morning);  // the live entry survived
  EXPECT_EQ(service.stats().hits, 1u);
  EXPECT_EQ(service.stats().misses, 3u);
}

TEST(PredictionServiceTest, RejectsNullTraceInBatch) {
  PredictionService service;
  const std::vector<BatchRequest> requests(1);
  EXPECT_THROW(service.predict_batch(requests), PreconditionError);
  // A broken precondition is the caller's bug, never a skippable machine.
  EXPECT_THROW(service.try_predict_batch(requests), PreconditionError);
  const MachineTrace trace = flaky_trace("m1");
  const std::vector<BatchRequest> beyond_history{
      {.trace = &trace,
       .request = {.target_day = trace.day_count() + 1,
                   .window = morning_window()}}};
  EXPECT_THROW(service.try_predict_batch(beyond_history), PreconditionError);
}

TEST(PredictionServiceTest, TryBatchSkipsOnlyTheMachineWhoseEstimateFails) {
  const MachineTrace a = flaky_trace("a");
  const MachineTrace b = flaky_trace("b");
  const MachineTrace c = flaky_trace("c");
  const PredictionRequest request{.target_day = a.day_count(),
                                  .window = morning_window()};
  const std::vector<BatchRequest> batch{{.trace = &a, .request = request},
                                        {.trace = &b, .request = request},
                                        {.trace = &c, .request = request}};
  // Serial, so the second evaluation of the point is the second item.
  PredictionService service(ServiceConfig{.max_threads = 1});
  const AvailabilityPredictor predictor(service.config().estimator);
  Failpoints::instance().arm_from_spec("service.estimate.fail=every:2");
  const std::vector<std::optional<Prediction>> tried =
      service.try_predict_batch(batch);
  Failpoints::instance().arm_from_spec("service.estimate.fail=every:2");
  EXPECT_THROW(service.predict_batch(batch), DataError);
  Failpoints::instance().reset();

  ASSERT_EQ(tried.size(), 3u);
  EXPECT_FALSE(tried[1].has_value());
  for (const std::size_t i : {0u, 2u}) {
    ASSERT_TRUE(tried[i].has_value()) << i;
    const Prediction direct = predictor.predict(*batch[i].trace, request);
    expect_identical(direct, *tried[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.temporal_reliability),
              std::bit_cast<std::uint64_t>(tried[i]->temporal_reliability));
    for (std::size_t k = 0; k < direct.p_absorb.size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.p_absorb[k]),
                std::bit_cast<std::uint64_t>(tried[i]->p_absorb[k]));
  }
}

}  // namespace
}  // namespace fgcs
