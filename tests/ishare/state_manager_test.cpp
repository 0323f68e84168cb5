#include "ishare/state_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ishare/gateway.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(StateManagerTest, RequiresAService) {
  const MachineTrace trace = test::constant_trace(2, 10, 60);
  EXPECT_THROW(StateManager(trace, nullptr), PreconditionError);
  EXPECT_THROW(Gateway(trace, test::test_thresholds(), nullptr),
               PreconditionError);
}

TEST(StateManagerTest, PredictsFromHistory) {
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  const StateManager manager(trace, std::make_shared<PredictionService>());
  const Prediction p = manager.predict(
      7, TimeWindow{.start_of_day = 9 * kSecondsPerHour,
                    .length = 2 * kSecondsPerHour});
  EXPECT_DOUBLE_EQ(p.temporal_reliability, 1.0);
}

TEST(StateManagerTest, PredictForJobRoundsToTicks) {
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  const StateManager manager(trace, std::make_shared<PredictionService>());
  // Submit at day 7, 09:00:30, duration 3599 s: window rounds to tick grid.
  const SimTime now = 7 * kSecondsPerDay + 9 * kSecondsPerHour + 30;
  const Prediction p = manager.predict_for_job(now, 3599);
  EXPECT_EQ(p.steps, 60u);  // 3600 s at 60 s ticks
  EXPECT_DOUBLE_EQ(p.temporal_reliability, 1.0);
}

TEST(StateManagerTest, PredictForJobClampsToOneDay) {
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  const StateManager manager(trace, std::make_shared<PredictionService>());
  const SimTime now = 7 * kSecondsPerDay;
  const Prediction p = manager.predict_for_job(now, 3 * kSecondsPerDay);
  EXPECT_EQ(p.steps, static_cast<std::size_t>(kSecondsPerDay / 60));
}

TEST(StateManagerTest, ReliabilityReflectsHistoricalFailures) {
  // Half the weekday mornings carry a steady overload at 09:00.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 10; ++d) {
    auto day = constant_day(60, 10);
    if (d % 2 == 0)
      for (std::size_t i = 9 * 60; i < 10 * 60; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  const StateManager manager(trace, std::make_shared<PredictionService>());
  const TimeWindow morning{.start_of_day = 8 * kSecondsPerHour,
                           .length = 3 * kSecondsPerHour};
  const TimeWindow evening{.start_of_day = 18 * kSecondsPerHour,
                           .length = 3 * kSecondsPerHour};
  const double tr_morning = manager.predict(9, morning).temporal_reliability;
  const double tr_evening = manager.predict(9, evening).temporal_reliability;
  EXPECT_LT(tr_morning, 0.8);
  EXPECT_DOUBLE_EQ(tr_evening, 1.0);
}

}  // namespace
}  // namespace fgcs
