// Property sweeps over randomly generated traces: invariants the predictor
// must satisfy regardless of workload.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

WorkloadParams fast_params() {
  WorkloadParams params;
  params.sampling_period = 60;
  return params;
}

class PredictorPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  MachineTrace make_trace() {
    TraceGenerator generator(fast_params(),
                             3000 + static_cast<std::uint64_t>(GetParam()));
    return generator.generate("prop", 21);
  }
};

TEST_P(PredictorPropertyTest, TrAlwaysInUnitInterval) {
  const MachineTrace trace = make_trace();
  const AvailabilityPredictor predictor;
  for (const SimTime start_hr : {0, 7, 13, 22}) {
    for (const SimTime len_hr : {1, 5, 10}) {
      const Prediction p = predictor.predict(
          trace, {.target_day = 20,
                  .window = {.start_of_day = start_hr * kSecondsPerHour,
                             .length = len_hr * kSecondsPerHour}});
      EXPECT_GE(p.temporal_reliability, 0.0);
      EXPECT_LE(p.temporal_reliability, 1.0);
      double absorbed = 0.0;
      for (const double a : p.p_absorb) {
        EXPECT_GE(a, -1e-12);
        absorbed += a;
      }
      EXPECT_NEAR(p.temporal_reliability + absorbed, 1.0, 1e-9);
    }
  }
}

TEST_P(PredictorPropertyTest, TrFromSameModelDecreasesWithSteps) {
  // For a FIXED estimated model, absorption can only grow with the horizon.
  const MachineTrace trace = make_trace();
  const SmpEstimator estimator;
  const TimeWindow window{.start_of_day = 10 * kSecondsPerHour,
                          .length = 8 * kSecondsPerHour};
  const SmpModel model = estimator.estimate(trace, 20, window);
  const SparseTrSolver solver(model);
  double previous = 1.0;
  for (std::size_t steps = 10; steps <= 480; steps += 47) {
    const double tr = solver.solve(State::kS1, steps).temporal_reliability;
    EXPECT_LE(tr, previous + 1e-12) << steps;
    previous = tr;
  }
}

TEST_P(PredictorPropertyTest, SlicePreservesPredictions) {
  // Predicting on a slice that still contains all the training days must give
  // the same answer as predicting on the full trace.
  const MachineTrace trace = make_trace();
  EstimatorConfig config;
  config.training_days = 5;
  const AvailabilityPredictor predictor(config);
  const TimeWindow window{.start_of_day = 9 * kSecondsPerHour,
                          .length = 2 * kSecondsPerHour};

  // Day 18 is a Friday (Monday epoch); its 5 most recent weekdays are
  // 11, 14, 15, 16, 17 — all inside the slice [7, 21).
  const double full =
      predictor.predict(trace, {.target_day = 18, .window = window})
          .temporal_reliability;
  const MachineTrace sliced = trace.slice(7, 21);
  const double partial =
      predictor.predict(sliced, {.target_day = 11, .window = window})
          .temporal_reliability;
  EXPECT_NEAR(full, partial, 1e-12);
}

TEST_P(PredictorPropertyTest, MoreHistoryNeverThrows) {
  const MachineTrace trace = make_trace();
  for (const std::size_t n : {1u, 3u, 30u, 0u}) {
    EstimatorConfig config;
    config.training_days = n;
    const AvailabilityPredictor predictor(config);
    EXPECT_NO_THROW(predictor.predict(
        trace, {.target_day = 20,
                .window = {.start_of_day = 0, .length = kSecondsPerHour}}));
  }
}

TEST_P(PredictorPropertyTest, ServiceBatchStaysInUnitInterval) {
  // The batched fleet-serving path must satisfy the same range invariant as
  // the plain predictor, warm or cold (the batch repeats every request).
  const MachineTrace trace = make_trace();
  PredictionService service;
  std::vector<BatchRequest> batch;
  for (const SimTime start_hr : {0, 7, 13, 22}) {
    for (const SimTime len_hr : {1, 5, 10}) {
      const PredictionRequest request{
          .target_day = 20,
          .window = {.start_of_day = start_hr * kSecondsPerHour,
                     .length = len_hr * kSecondsPerHour}};
      batch.push_back({.trace = &trace, .request = request});
      batch.push_back({.trace = &trace, .request = request});
    }
  }
  for (const Prediction& p : service.predict_batch(batch)) {
    EXPECT_GE(p.temporal_reliability, 0.0);
    EXPECT_LE(p.temporal_reliability, 1.0);
    double absorbed = 0.0;
    for (const double a : p.p_absorb) {
      EXPECT_GE(a, -1e-12);
      absorbed += a;
    }
    EXPECT_NEAR(p.temporal_reliability + absorbed, 1.0, 1e-9);
  }
}

TEST_P(PredictorPropertyTest, ServiceTrNonIncreasingInWindowLength) {
  // Longer windows only add failure opportunities, so through the service
  // path TR(T) must be non-increasing in T for a fixed window start. Each T
  // estimates its own model from the clock-time window, so this only holds
  // when training days agree — here every day repeats the same load pattern
  // (overload block at 10:00–12:00, intensity varied by the sweep index).
  // On fully random workloads re-estimation noise can locally raise TR.
  const int overload_pct = 85 + 2 * GetParam();
  MachineTrace trace("flaky", Calendar(0), 60, 512);
  for (int d = 0; d < 8; ++d) {
    auto day = test::constant_day(60, 10);
    for (std::size_t i = 10 * 60; i < 12 * 60; ++i)
      day[i] = test::sample(overload_pct);
    trace.append_day(std::move(day));
  }
  PredictionService service;
  for (const SimTime start_hr : {8, 9}) {
    double previous = 1.0;
    for (SimTime len_hr = 1; len_hr <= 12; ++len_hr) {
      const double tr =
          service
              .predict(trace,
                       {.target_day = 7,
                        .window = {.start_of_day = start_hr * kSecondsPerHour,
                                   .length = len_hr * kSecondsPerHour}})
              .temporal_reliability;
      EXPECT_LE(tr, previous + 1e-9) << "start " << start_hr << "h, length "
                                     << len_hr << "h";
      previous = tr;
    }
  }
}

TEST_P(PredictorPropertyTest, ServiceBitIdenticalToUnbatchedPredictor) {
  // The service contract is bit-identity with AvailabilityPredictor, not
  // approximate agreement — for cold misses and warm cache hits alike.
  const MachineTrace trace = make_trace();
  PredictionService service;
  const AvailabilityPredictor reference;
  for (const SimTime start_hr : {3, 11, 18}) {
    const PredictionRequest request{
        .target_day = 20,
        .window = {.start_of_day = start_hr * kSecondsPerHour,
                   .length = 4 * kSecondsPerHour}};
    const Prediction want = reference.predict(trace, request);
    for (int round = 0; round < 2; ++round) {  // miss, then cache hit
      const Prediction got = service.predict(trace, request);
      EXPECT_EQ(std::memcmp(&got.temporal_reliability,
                            &want.temporal_reliability, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(got.p_absorb.data(), want.p_absorb.data(),
                            sizeof(got.p_absorb)),
                0);
      EXPECT_EQ(got.initial_state, want.initial_state);
      EXPECT_EQ(got.training_days_used, want.training_days_used);
      EXPECT_EQ(got.steps, want.steps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredictorPropertyTest, ::testing::Range(0, 6));

TEST(TraceSliceTest, PreservesDayTypesAndContent) {
  TraceGenerator generator(fast_params(), 41);
  const MachineTrace trace = generator.generate("s", 14);
  const MachineTrace weekend_start = trace.slice(5, 14);  // day 5 = Saturday
  ASSERT_EQ(weekend_start.day_count(), 9);
  EXPECT_EQ(weekend_start.day_type(0), DayType::kWeekend);
  EXPECT_EQ(weekend_start.day_type(2), DayType::kWeekday);
  for (std::size_t i = 0; i < trace.samples_per_day(); i += 97)
    ASSERT_EQ(weekend_start.at(0, i), trace.at(5, i));
}

TEST(TraceSliceTest, ValidatesBounds) {
  const MachineTrace trace = test::constant_trace(5, 10, 3600);
  EXPECT_THROW(trace.slice(-1, 3), PreconditionError);
  EXPECT_THROW(trace.slice(2, 2), PreconditionError);
  EXPECT_THROW(trace.slice(0, 6), PreconditionError);
}

}  // namespace
}  // namespace fgcs
