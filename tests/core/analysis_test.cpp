#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

TEST(AnalyzeFailureTest, DeterministicFailureTime) {
  // S1 → S3 with certainty after exactly 4 ticks.
  SmpModel model(kStateCount, 10);
  model.set_q(0, 2, 1.0);
  model.set_h_pmf(0, 2, {0.0, 0.0, 0.0, 1.0});
  const FailureAnalysis a = analyze_failure(model, State::kS1, 10);
  EXPECT_DOUBLE_EQ(a.mean_ticks_to_failure, 4.0);
  EXPECT_DOUBLE_EQ(a.survival_at_horizon, 0.0);
  EXPECT_DOUBLE_EQ(a.failure_mode[0], 1.0);  // S3
  EXPECT_EQ(a.dominant_outcome, State::kS3);
}

TEST(AnalyzeFailureTest, CertainSurvivalHasFullHorizonMttf) {
  SmpModel model(kStateCount, 8);  // no transitions at all
  const FailureAnalysis a = analyze_failure(model, State::kS1, 8);
  EXPECT_DOUBLE_EQ(a.mean_ticks_to_failure, 8.0);  // capped at the horizon
  EXPECT_DOUBLE_EQ(a.survival_at_horizon, 1.0);
  EXPECT_EQ(a.dominant_outcome, State::kS1);
}

TEST(AnalyzeFailureTest, SplitsFailureModes) {
  // 60% S3 at tick 1, 40% S5 at tick 2.
  SmpModel model(kStateCount, 6);
  model.set_q(0, 2, 0.6);
  model.set_h_pmf(0, 2, {1.0});
  model.set_q(0, 4, 0.4);
  model.set_h_pmf(0, 4, {0.0, 1.0});
  const FailureAnalysis a = analyze_failure(model, State::kS1, 6);
  EXPECT_NEAR(a.failure_mode[0], 0.6, 1e-12);
  EXPECT_NEAR(a.failure_mode[2], 0.4, 1e-12);
  EXPECT_EQ(a.dominant_outcome, State::kS3);
  // E[T] = 0.6·1 + 0.4·2 = 1.4.
  EXPECT_NEAR(a.mean_ticks_to_failure, 1.4, 1e-12);
}

TEST(AnalyzeFailureTest, MttfConsistentWithSurvivalCurve) {
  Rng rng(7);
  const SmpModel model = test::random_fgcs_model(6, rng);
  const std::size_t horizon = 20;
  const FailureAnalysis a = analyze_failure(model, State::kS2, horizon);
  EXPECT_GE(a.mean_ticks_to_failure, a.survival_at_horizon * horizon - 1e-9);
  EXPECT_LE(a.mean_ticks_to_failure, static_cast<double>(horizon) + 1e-9);
}

// analyze_failure reads the whole first-passage series off one curve build;
// recomputing every quantity from the paper's per-call solver, one solve per
// step, must give the same bits.
TEST(AnalyzeFailureTest, BitIdenticalToPerStepOracle) {
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng(static_cast<std::uint64_t>(6100 + trial));
    // Pmf support bounds from 2 to 40 against horizons up to 64: supports
    // both shorter and longer than the horizon.
    const std::size_t support =
        2 + static_cast<std::size_t>(rng.uniform_int(0, 38));
    const SmpModel model = test::random_fgcs_model(
        support, rng, /*allow_defective=*/trial % 4 == 0);
    const std::size_t horizon =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 63));
    const SparseTrSolver oracle(model);
    for (const State init : {State::kS1, State::kS2}) {
      const FailureAnalysis a = analyze_failure(model, init, horizon);
      double mean = 0.0;
      for (std::size_t m = 0; m < horizon; ++m) {
        const auto r = oracle.solve(init, m);
        mean += std::max(0.0, 1.0 - (r.p_absorb[0] + r.p_absorb[1] +
                                     r.p_absorb[2]));
      }
      const auto at_horizon = oracle.solve(init, horizon);
      EXPECT_EQ(a.mean_ticks_to_failure, mean)
          << "trial=" << trial << " horizon=" << horizon;
      EXPECT_EQ(a.failure_mode, at_horizon.p_absorb) << "trial=" << trial;
      EXPECT_EQ(a.survival_at_horizon, at_horizon.temporal_reliability)
          << "trial=" << trial;
    }
  }
}

TEST(AnalyzeFailureTest, RejectsFailureInit) {
  SmpModel model(kStateCount, 4);
  EXPECT_THROW(analyze_failure(model, State::kS3, 4), PreconditionError);
}

TEST(WilsonIntervalTest, ContainsPointEstimate) {
  for (const auto [s, n] : {std::pair<std::size_t, std::size_t>{0, 10},
                            {5, 10},
                            {10, 10},
                            {1, 30},
                            {29, 30}}) {
    const ConfidenceInterval ci = wilson_interval(s, n);
    const double p = static_cast<double>(s) / static_cast<double>(n);
    EXPECT_TRUE(ci.contains(p)) << s << "/" << n;
    EXPECT_GE(ci.lower, 0.0);
    EXPECT_LE(ci.upper, 1.0);
    EXPECT_LT(ci.lower, ci.upper);
  }
}

TEST(WilsonIntervalTest, ShrinksWithSampleSize) {
  const ConfidenceInterval small = wilson_interval(5, 10);
  const ConfidenceInterval large = wilson_interval(500, 1000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(WilsonIntervalTest, ExtremesDoNotDegenerate) {
  // Unlike the naive normal interval, Wilson at p̂ = 0 or 1 is non-trivial.
  const ConfidenceInterval zero = wilson_interval(0, 20);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.0);
  const ConfidenceInterval one = wilson_interval(20, 20);
  EXPECT_LT(one.lower, 1.0);
  EXPECT_DOUBLE_EQ(one.upper, 1.0);
}

TEST(WilsonIntervalTest, ValidatesArguments) {
  EXPECT_THROW(wilson_interval(1, 0), PreconditionError);
  EXPECT_THROW(wilson_interval(5, 4), PreconditionError);
  EXPECT_THROW(wilson_interval(1, 2, 0.0), PreconditionError);
}

}  // namespace
}  // namespace fgcs
