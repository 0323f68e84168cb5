#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(TransitionCountsTest, CountsCompletedAndCensoredSojourns) {
  TransitionCounts counts(10);
  // S1 ×3, S2 ×2, then the first failure (S3): the trailing recovery is
  // invisible to first-passage estimation (failures are absorbing).
  const std::vector<State> seq{State::kS1, State::kS1, State::kS1, State::kS2,
                               State::kS2, State::kS3, State::kS3, State::kS1,
                               State::kS1};
  counts.accumulate(seq);
  EXPECT_EQ(counts.count(State::kS1, State::kS2, 3), 1u);
  EXPECT_EQ(counts.count(State::kS2, State::kS3, 2), 1u);
  EXPECT_EQ(counts.censored(State::kS1), 0u);  // post-failure data discarded
  EXPECT_EQ(counts.censored(State::kS2), 0u);
  EXPECT_EQ(counts.entries(State::kS1), 1u);
  EXPECT_EQ(counts.entries(State::kS2), 1u);
  EXPECT_EQ(counts.exits(State::kS1, State::kS2), 1u);
  EXPECT_EQ(counts.exits(State::kS1, State::kS3), 0u);
}

TEST(TransitionCountsTest, AccumulateAcrossMultipleWindows) {
  TransitionCounts counts(5);
  const std::vector<State> a{State::kS1, State::kS2};  // S1 hold 1 → S2; S2 censored
  const std::vector<State> b{State::kS1, State::kS2};
  counts.accumulate(a);
  counts.accumulate(b);
  EXPECT_EQ(counts.count(State::kS1, State::kS2, 1), 2u);
  EXPECT_EQ(counts.censored(State::kS2), 2u);
}

TEST(TransitionCountsTest, WindowsStartingInFailureContributeNothing) {
  TransitionCounts counts(5);
  const std::vector<State> seq{State::kS5, State::kS5, State::kS1};
  counts.accumulate(seq);
  // The window is already failed at its start: no sojourn evidence at all.
  EXPECT_EQ(counts.entries(State::kS1), 0u);
  EXPECT_EQ(counts.entries(State::kS2), 0u);
}

TEST(EstimatorTest, BuildModelNormalizesQandH) {
  TransitionCounts counts(6);
  // Two S1→S2 (holds 2 and 4), one S1→S3 (hold 1), one censored S1.
  const std::vector<State> w1{State::kS1, State::kS1, State::kS2};
  const std::vector<State> w2{State::kS1, State::kS1, State::kS1, State::kS1,
                              State::kS2};
  const std::vector<State> w3{State::kS1, State::kS3};
  const std::vector<State> w4{State::kS1, State::kS1};
  counts.accumulate(w1);  // hold 2 → S2
  counts.accumulate(w2);  // hold 4 → S2
  counts.accumulate(w3);  // hold 1 → S3
  counts.accumulate(w4);  // censored

  const SmpEstimator estimator;
  const SmpModel model = estimator.build_model(counts);
  // entries = 4: Q(S1→S2) = 2/4, Q(S1→S3) = 1/4, censored ¼ missing.
  EXPECT_NEAR(model.q(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(model.q(0, 2), 0.25, 1e-12);
  EXPECT_NEAR(model.exit_mass(0), 0.75, 1e-12);
  // H(S1→S2): holds 2 and 4, each ½.
  EXPECT_NEAR(model.h(0, 1, 2), 0.5, 1e-12);
  EXPECT_NEAR(model.h(0, 1, 4), 0.5, 1e-12);
  EXPECT_NEAR(model.h(0, 1, 1), 0.0, 1e-12);
  EXPECT_NEAR(model.h(0, 2, 1), 1.0, 1e-12);
}

TEST(EstimatorTest, NoDataLeavesDefectiveRows) {
  const SmpEstimator estimator;
  const SmpModel model = estimator.build_model(TransitionCounts(4));
  EXPECT_DOUBLE_EQ(model.exit_mass(0), 0.0);
  EXPECT_DOUBLE_EQ(model.exit_mass(1), 0.0);
}

TEST(EstimatorTest, LaplaceSmoothingAddsPseudoCounts) {
  TransitionCounts counts(4);
  const std::vector<State> w{State::kS1, State::kS2};
  counts.accumulate(w);  // one S1→S2, S2 censored
  EstimatorConfig config;
  config.laplace_alpha = 1.0;
  const SmpEstimator estimator(config);
  const SmpModel model = estimator.build_model(counts);
  // S1: entries 1, denom = 1 + 4α = 5. Q(S1→S2) = (1+1)/5, others 1/5.
  EXPECT_NEAR(model.q(0, 1), 0.4, 1e-12);
  EXPECT_NEAR(model.q(0, 2), 0.2, 1e-12);
  EXPECT_NEAR(model.q(0, 4), 0.2, 1e-12);
  // Pure pseudo-count transitions get a uniform holding pmf.
  EXPECT_NEAR(model.h(0, 2, 1), 0.25, 1e-12);
  EXPECT_NEAR(model.h(0, 2, 4), 0.25, 1e-12);
}

TEST(EstimatorTest, TrainingDaySelectionFollowsPaperRule) {
  // 14 days, Monday epoch. Target day 12 (weekend? day 12 = Saturday index…
  // epoch_dow=0: weekends are 5,6,12,13).
  const MachineTrace trace = test::constant_trace(14, 10, 60);
  EstimatorConfig config;
  config.training_days = 3;
  const SmpEstimator estimator(config);
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};

  // Weekday target: most recent 3 weekdays before day 11.
  EXPECT_EQ(estimator.training_days_for(trace, 11, w),
            (std::vector<std::int64_t>{8, 9, 10}));
  // Weekend target: most recent weekends before day 12 are 5, 6.
  EXPECT_EQ(estimator.training_days_for(trace, 12, w),
            (std::vector<std::int64_t>{5, 6}));
}

TEST(EstimatorTest, TrainingDaysSkipIncompleteWrappingWindows) {
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  EstimatorConfig config;
  config.training_days = 10;
  const SmpEstimator estimator(config);
  const TimeWindow wrapping{.start_of_day = 23 * kSecondsPerHour,
                            .length = 4 * kSecondsPerHour};
  // Day 7 would need day 8, which does not exist.
  const auto days = estimator.training_days_for(trace, 8, wrapping);
  EXPECT_EQ(days, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));  // weekdays 0-4
}

TEST(EstimatorTest, EstimateEndToEndOnCraftedTrace) {
  // Every training day: load 10% for the first half of the window, then 90%
  // (steady) — an S1 → S3 transition at a deterministic hold.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    for (std::size_t i = 30; i < 120; ++i) day[i] = sample(90);
    trace.append_day(std::move(day));
  }
  EstimatorConfig config;
  config.training_days = 4;
  const SmpEstimator estimator(config);
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};
  const SmpModel model = estimator.estimate(trace, 4, w);

  EXPECT_NEAR(model.q(0, 2), 1.0, 1e-12);   // S1 → S3 always
  EXPECT_NEAR(model.h(0, 2, 30), 1.0, 1e-12);  // hold exactly 30 ticks
}

TEST(EstimatorTest, MajorityInitialState) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  trace.append_day(constant_day(60, 10));  // starts in S1
  trace.append_day(constant_day(60, 40));  // starts in S2
  trace.append_day(constant_day(60, 45));  // starts in S2
  trace.append_day(constant_day(60, 5));
  const SmpEstimator estimator;
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};
  const std::vector<std::int64_t> s2_majority{1, 2, 3};
  EXPECT_EQ(estimator.count_transitions(trace, s2_majority, w)
                .majority_initial_state(),
            State::kS2);
  const std::vector<std::int64_t> tie{0, 1};
  EXPECT_EQ(estimator.count_transitions(trace, tie, w).majority_initial_state(),
            State::kS1);
  EXPECT_EQ(estimator.count_transitions(trace, {}, w).majority_initial_state(),
            State::kS1);
}

TEST(EstimatorTest, RejectsNegativeAlpha) {
  EstimatorConfig config;
  config.laplace_alpha = -0.1;
  EXPECT_THROW(SmpEstimator{config}, PreconditionError);
}

}  // namespace
}  // namespace fgcs
