#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(PredictorTest, AlwaysAvailableHistoryPredictsCertainSurvival) {
  const MachineTrace trace = test::constant_trace(10, 10, 60);
  const AvailabilityPredictor predictor;
  const Prediction p = predictor.predict(
      trace, {.target_day = 9,
              .window = {.start_of_day = 8 * kSecondsPerHour,
                         .length = 2 * kSecondsPerHour}});
  EXPECT_DOUBLE_EQ(p.temporal_reliability, 1.0);
  EXPECT_EQ(p.initial_state, State::kS1);
  EXPECT_EQ(p.steps, 120u);
  EXPECT_GT(p.training_days_used, 0u);
}

TEST(PredictorTest, DeterministicFailurePredictsZeroSurvival) {
  // Every weekday: steady overload from tick 30 of the window on.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    for (std::size_t i = 30; i < 180; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  const AvailabilityPredictor predictor;
  const Prediction p = predictor.predict(
      trace,
      {.target_day = 4,
       .window = {.start_of_day = 0, .length = 2 * kSecondsPerHour}});
  EXPECT_NEAR(p.temporal_reliability, 0.0, 1e-9);
  EXPECT_NEAR(p.p_absorb[0], 1.0, 1e-9);  // S3
}

TEST(PredictorTest, MixedHistoryGivesFractionalTr) {
  // 2 of 4 weekday training days fail (steady overload), 2 stay idle:
  // TR should be ~0.5 for a window covering the overload.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    if (d % 2 == 0) {
      for (std::size_t i = 60; i < 200; ++i) day[i] = sample(95);
    }
    trace.append_day(std::move(day));
  }
  EstimatorConfig config;
  config.training_days = 4;
  const AvailabilityPredictor predictor(config);
  const Prediction p = predictor.predict(
      trace, {.target_day = 4,
              .window = {.start_of_day = 0, .length = 3 * kSecondsPerHour}});
  EXPECT_NEAR(p.temporal_reliability, 0.5, 1e-9);
}

TEST(PredictorTest, ExplicitInitialStateIsRespected) {
  // From S2 the machine always fails; from S1 it never transitions to S2.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 4; ++d) {
    auto day = constant_day(60, 40);  // starts in S2
    for (std::size_t i = 10; i < 100; ++i) day[i] = sample(90);
    trace.append_day(std::move(day));
  }
  const AvailabilityPredictor predictor;
  // 100 ticks: the window ends while the overload is still in force, so the
  // only S2 sojourn in the data is the one that ends in S3.
  const TimeWindow w{.start_of_day = 0, .length = 100 * 60};
  const Prediction from_s2 = predictor.predict(
      trace, {.target_day = 3, .window = w, .initial_state = State::kS2});
  const Prediction from_s1 = predictor.predict(
      trace, {.target_day = 3, .window = w, .initial_state = State::kS1});
  EXPECT_LT(from_s2.temporal_reliability, 0.01);
  // No S1 data at all: defective row → predicted survival.
  EXPECT_DOUBLE_EQ(from_s1.temporal_reliability, 1.0);
}

TEST(PredictorTest, TargetDayJustPastHistoryIsAllowed) {
  // Eight days from a Monday: day 8 is a Tuesday with six earlier weekdays.
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  const AvailabilityPredictor predictor;
  EXPECT_NO_THROW(predictor.predict(
      trace,
      {.target_day = 8, .window = {.start_of_day = 0, .length = 3600}}));
  EXPECT_THROW(
      predictor.predict(
          trace,
          {.target_day = 9, .window = {.start_of_day = 0, .length = 3600}}),
      PreconditionError);
  EXPECT_THROW(
      predictor.predict(
          trace,
          {.target_day = -1, .window = {.start_of_day = 0, .length = 3600}}),
      PreconditionError);
}

TEST(PredictorTest, TimingFieldsArePopulated) {
  const MachineTrace trace = test::constant_trace(8, 30, 60);
  const AvailabilityPredictor predictor;
  const Prediction p = predictor.predict(
      trace, {.target_day = 7,
              .window = {.start_of_day = 0, .length = 4 * kSecondsPerHour}});
  EXPECT_GE(p.estimate_seconds, 0.0);
  EXPECT_GE(p.solve_seconds, 0.0);
  EXPECT_LT(p.estimate_seconds + p.solve_seconds, 5.0);
}

TEST(PredictorTest, RejectsFailureInitialState) {
  const MachineTrace trace = test::constant_trace(3, 10, 60);
  const AvailabilityPredictor predictor;
  EXPECT_THROW(
      predictor.predict(trace, {.target_day = 2,
                                .window = {.start_of_day = 0, .length = 3600},
                                .initial_state = State::kS5}),
      PreconditionError);
}

}  // namespace
}  // namespace fgcs
