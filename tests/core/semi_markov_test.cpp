#include "core/semi_markov.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

/// Two-state chain: 0 → 1 with probability 1 and deterministic hold `hold`.
SmpModel deterministic_two_state(std::size_t hold, std::size_t horizon) {
  SmpModel model(2, horizon);
  model.set_q(0, 1, 1.0);
  std::vector<double> pmf(hold, 0.0);
  pmf[hold - 1] = 1.0;
  model.set_h_pmf(0, 1, pmf);
  return model;
}

TEST(SmpModelTest, SettersValidateRanges) {
  SmpModel model(3, 10);
  EXPECT_THROW(model.set_q(0, 0, 0.5), PreconditionError);  // self-transition
  EXPECT_THROW(model.set_q(0, 1, 1.5), PreconditionError);
  EXPECT_THROW(model.set_q(3, 0, 0.5), PreconditionError);
  model.set_q(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(model.q(0, 1), 0.5);
  EXPECT_THROW(model.set_h_pmf(0, 1, std::vector<double>(11, 0.1)),
               PreconditionError);  // longer than horizon
  EXPECT_THROW(model.set_h_pmf(0, 1, {0.6, 0.6}), PreconditionError);
  EXPECT_THROW(model.set_h_pmf(0, 1, {-0.1}), PreconditionError);
}

TEST(SmpModelTest, ValidateRejectsQWithoutH) {
  SmpModel model(2, 5);
  model.set_q(0, 1, 1.0);
  EXPECT_THROW(model.validate(), PreconditionError);
  model.set_h_pmf(0, 1, {1.0});
  EXPECT_NO_THROW(model.validate());
}

TEST(SmpModelTest, ExitMassAndSurvival) {
  SmpModel model(2, 4);
  model.set_q(0, 1, 0.8);  // defective: 0.2 censored
  model.set_h_pmf(0, 1, {0.5, 0.25, 0.25});
  EXPECT_DOUBLE_EQ(model.exit_mass(0), 0.8);
  EXPECT_DOUBLE_EQ(model.survival(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.survival(0, 1), 1.0 - 0.8 * 0.5);
  EXPECT_NEAR(model.survival(0, 3), 0.2, 1e-12);
  EXPECT_NEAR(model.survival(0, 4), 0.2, 1e-12);  // censored mass persists
}

TEST(SmpModelTest, HoldingPmfLookup) {
  SmpModel model(2, 5);
  model.set_q(0, 1, 1.0);
  model.set_h_pmf(0, 1, {0.1, 0.9});
  EXPECT_DOUBLE_EQ(model.h(0, 1, 1), 0.1);
  EXPECT_DOUBLE_EQ(model.h(0, 1, 2), 0.9);
  EXPECT_DOUBLE_EQ(model.h(0, 1, 5), 0.0);  // beyond stored support
  EXPECT_THROW(model.h(0, 1, 0), PreconditionError);
  EXPECT_THROW(model.h(0, 1, 6), PreconditionError);
}

TEST(DenseSolverTest, DeterministicHoldFirstPassage) {
  const SmpModel model = deterministic_two_state(/*hold=*/3, /*horizon=*/10);
  const DenseSmpSolver solver(model);
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 2)[1], 0.0);  // too early
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 3)[1], 1.0);
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 10)[1], 1.0);
}

TEST(DenseSolverTest, GeometricChainMatchesClosedForm) {
  // A chain that leaves state 0 with per-tick probability 0.3 has absorption
  // probability 1 − 0.7ⁿ by tick n; in SMP form that is a geometric holding
  // time with full exit mass.
  SmpModel geo(2, 64);
  geo.set_q(0, 1, 1.0);
  std::vector<double> pmf(64);
  double p = 0.3;
  for (std::size_t l = 0; l < pmf.size(); ++l) {
    pmf[l] = p;
    p *= 0.7;
  }
  // Normalize the tail truncation into the last entry so the pmf sums to 1.
  double total = 0.0;
  for (const double v : pmf) total += v;
  pmf.back() += 1.0 - total;
  geo.set_h_pmf(0, 1, pmf);

  const DenseSmpSolver solver(geo);
  for (const std::size_t n : {1u, 2u, 5u, 10u}) {
    const double expected = 1.0 - std::pow(0.7, static_cast<double>(n));
    EXPECT_NEAR(solver.first_passage(0, n)[1], expected, 1e-9) << n;
  }
}

TEST(DenseSolverTest, TwoHopChainConvolves) {
  // 0 → 1 (hold 2) → 2 (hold 3): first passage to 2 happens exactly at 5.
  SmpModel model(3, 10);
  model.set_q(0, 1, 1.0);
  model.set_h_pmf(0, 1, {0.0, 1.0});
  model.set_q(1, 2, 1.0);
  model.set_h_pmf(1, 2, {0.0, 0.0, 1.0});
  const DenseSmpSolver solver(model);
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 4)[2], 0.0);
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 5)[2], 1.0);
  // Intermediate state reached at 2.
  EXPECT_DOUBLE_EQ(solver.first_passage(0, 2)[1], 1.0);
}

class FirstPassageMonteCarloTest : public ::testing::TestWithParam<int> {};

TEST_P(FirstPassageMonteCarloTest, SolverMatchesSimulation) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const SmpModel model =
      test::random_fgcs_model(6, rng, /*allow_defective=*/GetParam() % 2 == 1);
  const std::size_t n_steps = 4 + static_cast<std::size_t>(GetParam() % 12);
  const DenseSmpSolver solver(model);

  const std::vector<double> fp = solver.first_passage(0, n_steps);
  const double tr_solver = 1.0 - (fp[2] + fp[3] + fp[4]);

  const std::array<bool, 5> failure{false, false, true, true, true};
  Rng mc_rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const double tr_mc = monte_carlo_reliability(
      model, 0, n_steps, std::span<const bool>(failure), 40000, mc_rng);

  EXPECT_NEAR(tr_solver, tr_mc, 0.015) << "steps=" << n_steps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FirstPassageMonteCarloTest,
                         ::testing::Range(0, 16));

TEST(MonteCarloTest, FailureInitIsZero) {
  Rng rng(3);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const std::array<bool, 5> failure{false, false, true, true, true};
  Rng mc(5);
  EXPECT_DOUBLE_EQ(monte_carlo_reliability(model, 2, 5,
                                           std::span<const bool>(failure), 10,
                                           mc),
                   0.0);
}

}  // namespace
}  // namespace fgcs
