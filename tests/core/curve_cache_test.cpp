#include "core/curve_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/estimator.hpp"
#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fgcs {
namespace {

void expect_identical(const TrResult& a, const TrResult& b) {
  EXPECT_EQ(a.temporal_reliability, b.temporal_reliability);
  EXPECT_EQ(a.p_absorb, b.p_absorb);
}

constexpr std::size_t kS1 = index_of(State::kS1);
constexpr std::size_t kS2 = index_of(State::kS2);
constexpr std::size_t kS3 = index_of(State::kS3);
constexpr std::size_t kS4 = index_of(State::kS4);
constexpr std::size_t kS5 = index_of(State::kS5);

/// A holding-time pmf of length `horizon` with mass only at the given
/// (1-based) hold lengths.
std::vector<double> pmf_at(std::size_t horizon,
                           std::initializer_list<std::pair<std::size_t, double>>
                               mass) {
  std::vector<double> pmf(horizon, 0.0);
  for (const auto& [hold, p] : mass) pmf[hold - 1] = p;
  return pmf;
}

/// Every horizon 0..t_max of a table built at `t_max`, against fresh
/// SparseTrSolver solves: both initial states, every bit.
void expect_matches_solver_at(const SmpModel& model,
                              std::initializer_list<std::size_t> t_maxes) {
  const SparseTrSolver solver(model);
  for (const std::size_t t_max : t_maxes) {
    const AbsorptionCurves curves(model, t_max);
    for (std::size_t n = 0; n <= t_max; ++n)
      for (const State init : {State::kS1, State::kS2}) {
        const auto got = curves.result_at(init, n);
        const auto want = solver.solve(init, n);
        EXPECT_EQ(got.temporal_reliability, want.temporal_reliability)
            << "t_max=" << t_max << " n=" << n << " init=" << to_string(init);
        EXPECT_EQ(got.p_absorb, want.p_absorb)
            << "t_max=" << t_max << " n=" << n << " init=" << to_string(init);
      }
  }
}

TEST(CurveCacheTest, RejectsWrongStateCount) {
  const SmpModel model(3, 4);
  EXPECT_THROW(AbsorptionCurves(model, 4), PreconditionError);
}

TEST(CurveCacheTest, RejectsNonAbsorbingFailureStates) {
  SmpModel model(kStateCount, 4);
  model.set_q(2, 0, 1.0);  // S3 → S1: failures must be absorbing
  model.set_h_pmf(2, 0, {1.0});
  EXPECT_THROW(AbsorptionCurves(model, 4), PreconditionError);
}

TEST(CurveCacheTest, ResultAtPreconditions) {
  Rng rng(11);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const AbsorptionCurves curves(model, 8);
  EXPECT_THROW(curves.result_at(State::kS3, 4), PreconditionError);
  EXPECT_THROW(curves.result_at(State::kS1, 9), PreconditionError);
  EXPECT_NO_THROW(curves.result_at(State::kS1, 8));
  EXPECT_NO_THROW(curves.result_at(State::kS2, 0));
}

TEST(CurveCacheTest, ZeroStepsIsCertainSurvival) {
  Rng rng(12);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const AbsorptionCurves curves(model, 0);
  const auto result = curves.result_at(State::kS1, 0);
  EXPECT_DOUBLE_EQ(result.temporal_reliability, 1.0);
  EXPECT_EQ(result.p_absorb, (std::array<double, 3>{0.0, 0.0, 0.0}));
}

// The tentpole's correctness anchor: a table read answers exactly what a
// fresh per-call recursion would, bit for bit, across randomized models
// (defective rows included), horizons, and both initial states. 150 models
// × 4 horizons × 2 inits = 1200 compared solves.
TEST(CurveCacheTest, BitIdenticalToSparseSolverFuzz) {
  std::size_t cases = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Rng rng(static_cast<std::uint64_t>(7000 + trial));
    const std::size_t horizon = 2 + static_cast<std::size_t>(trial % 9);
    const SmpModel model =
        test::random_fgcs_model(horizon, rng, /*allow_defective=*/trial % 3 == 0);
    const std::size_t t_max =
        1 + static_cast<std::size_t>(rng.uniform_int(1, 40));
    const AbsorptionCurves curves(model, t_max);
    const SparseTrSolver solver(model);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t n =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(t_max)));
      for (const State init : {State::kS1, State::kS2}) {
        const auto from_curves = curves.result_at(init, n);
        const auto fresh = solver.solve(init, n);
        EXPECT_EQ(from_curves.temporal_reliability, fresh.temporal_reliability)
            << "trial=" << trial << " n=" << n << " init=" << to_string(init);
        EXPECT_EQ(from_curves.p_absorb, fresh.p_absorb)
            << "trial=" << trial << " n=" << n << " init=" << to_string(init);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 500u);
}

TEST(CurveCacheTest, CurvesAreMonotoneNonDecreasingInT) {
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(static_cast<std::uint64_t>(300 + trial));
    const SmpModel model = test::random_fgcs_model(6, rng);
    const AbsorptionCurves curves(model, 40);
    for (const State init : {State::kS1, State::kS2})
      for (std::size_t jj = 0; jj < 3; ++jj)
        for (std::size_t m = 1; m <= 40; ++m)
          EXPECT_GE(curves.probability(init, jj, m) + 1e-15,
                    curves.probability(init, jj, m - 1))
              << "trial=" << trial << " m=" << m;
  }
}

// A longer build extends the table without touching the prefix it shares
// with a shorter one: row m depends only on rows < m, and there is one build
// path at every horizon. 40 000 steps is above the horizon where builds used
// to switch to the FFT renewal solver, whose rows were not bit-identical.
TEST(CurveCacheTest, ExtensionPreservesPrefixBitForBit) {
  constexpr std::size_t kShort = 4096;
  constexpr std::size_t kLong = 40000;
  Rng rng(4200);
  const SmpModel model = test::random_fgcs_model(48, rng);
  const AbsorptionCurves shorter(model, kShort);
  const AbsorptionCurves longer(model, kLong);
  ASSERT_EQ(longer.t_max(), kLong);
  for (const State init : {State::kS1, State::kS2})
    for (std::size_t jj = 0; jj < 3; ++jj)
      for (std::size_t m = 1; m <= kShort; ++m)
        ASSERT_EQ(longer.probability(init, jj, m),
                  shorter.probability(init, jj, m))
            << "m=" << m << " init=" << to_string(init);

  const SparseTrSolver solver(model);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{47},
                              std::size_t{48}, std::size_t{49},
                              std::size_t{1000}, kShort})
    for (const State init : {State::kS1, State::kS2}) {
      const auto want = solver.solve(init, n);
      const auto got = longer.result_at(init, n);
      EXPECT_EQ(got.temporal_reliability, want.temporal_reliability)
          << "n=" << n << " init=" << to_string(init);
      EXPECT_EQ(got.p_absorb, want.p_absorb)
          << "n=" << n << " init=" << to_string(init);
    }
}

// One build serves both initial states: the two rows the service caches
// per entry come from the same table, each bit-identical to its own
// per-initial-state solve.
TEST(CurveCacheTest, OneBuildServesBothInitialStates) {
  Rng rng(21);
  const SmpModel model = test::random_fgcs_model(6, rng);
  const std::size_t n = 64;
  const AbsorptionCurves curves(model, n);
  const SparseTrSolver solver(model);
  expect_identical(curves.result_at(State::kS1, n), solver.solve(State::kS1, n));
  expect_identical(curves.result_at(State::kS2, n), solver.solve(State::kS2, n));
}

TEST(CurveCacheTest, ConstructionValidatesModelExactlyOnce) {
  Rng rng(33);
  const SmpModel model = test::random_fgcs_model(5, rng);
  const std::uint64_t before = smp_validate_calls();
  const AbsorptionCurves curves(model, 32);
  EXPECT_EQ(smp_validate_calls(), before + 1);
  curves.result_at(State::kS1, 32);
  curves.result_at(State::kS2, 7);
  EXPECT_EQ(smp_validate_calls(), before + 1);  // reads: none
}

// The builder visits only nonzero kernel lags and nonzero direct-absorption
// rows. The cases below pin the supports where that bookkeeping can slip.

TEST(CurveCacheTest, DisjointCrossKernelSupportsStayBitIdentical) {
  SmpModel model(kStateCount, 12);
  model.set_q(kS1, kS2, 0.5);
  model.set_h_pmf(kS1, kS2, pmf_at(12, {{2, 0.4}, {5, 0.6}}));
  model.set_q(kS2, kS1, 0.6);
  model.set_h_pmf(kS2, kS1, pmf_at(12, {{3, 0.7}, {7, 0.3}}));
  model.set_q(kS1, kS3, 0.3);
  model.set_h_pmf(kS1, kS3, pmf_at(12, {{4, 1.0}}));
  model.set_q(kS1, kS5, 0.2);
  model.set_h_pmf(kS1, kS5, pmf_at(12, {{1, 0.5}, {9, 0.5}}));
  model.set_q(kS2, kS4, 0.4);
  model.set_h_pmf(kS2, kS4, pmf_at(12, {{6, 1.0}}));
  expect_matches_solver_at(model, {1, 5, 12, 20});
}

TEST(CurveCacheTest, LagAtLastPmfIndexIsVisited) {
  SmpModel model(kStateCount, 8);
  model.set_q(kS1, kS2, 0.7);
  model.set_h_pmf(kS1, kS2, pmf_at(8, {{8, 1.0}}));
  model.set_q(kS2, kS1, 0.5);
  model.set_h_pmf(kS2, kS1, pmf_at(8, {{1, 0.5}, {8, 0.5}}));
  model.set_q(kS1, kS3, 0.3);
  model.set_h_pmf(kS1, kS3, pmf_at(8, {{8, 1.0}}));
  model.set_q(kS2, kS5, 0.5);
  model.set_h_pmf(kS2, kS5, pmf_at(8, {{8, 1.0}}));
  expect_matches_solver_at(model, {7, 8, 9, 16});
}

TEST(CurveCacheTest, LagsAtOrBeyondTheRequestedHorizon) {
  // Every kernel term sits at lag 10: tables built to 3 or 9 ticks hold no
  // cross term at all, one built to 10 only the direct step, and one built
  // to 11 must bring the lag-10 terms in exactly where the solver does.
  SmpModel model(kStateCount, 10);
  model.set_q(kS1, kS2, 0.6);
  model.set_h_pmf(kS1, kS2, pmf_at(10, {{10, 1.0}}));
  model.set_q(kS2, kS1, 0.6);
  model.set_h_pmf(kS2, kS1, pmf_at(10, {{10, 1.0}}));
  model.set_q(kS1, kS4, 0.4);
  model.set_h_pmf(kS1, kS4, pmf_at(10, {{10, 1.0}}));
  model.set_q(kS2, kS3, 0.4);
  model.set_h_pmf(kS2, kS3, pmf_at(10, {{10, 1.0}}));
  expect_matches_solver_at(model, {3, 9, 10, 11});
}

TEST(CurveCacheTest, OneEmptyCrossKernel) {
  // q(S1,S2) = 0: S1 never reaches S2, while S2 still crosses back to S1.
  SmpModel model(kStateCount, 9);
  model.set_q(kS2, kS1, 0.5);
  model.set_h_pmf(kS2, kS1, pmf_at(9, {{2, 0.5}, {6, 0.5}}));
  model.set_q(kS1, kS3, 0.6);
  model.set_h_pmf(kS1, kS3, pmf_at(9, {{3, 0.25}, {9, 0.75}}));
  model.set_q(kS2, kS5, 0.5);
  model.set_h_pmf(kS2, kS5, pmf_at(9, {{4, 1.0}}));
  expect_matches_solver_at(model, {2, 9, 15});
}

TEST(CurveCacheTest, DirectPmfWithGaps) {
  SmpModel model(kStateCount, 7);
  model.set_q(kS1, kS2, 0.25);
  model.set_h_pmf(kS1, kS2, pmf_at(7, {{3, 1.0}}));
  model.set_q(kS2, kS1, 0.3);
  model.set_h_pmf(kS2, kS1, pmf_at(7, {{1, 1.0}}));
  model.set_q(kS1, kS3, 0.75);
  model.set_h_pmf(kS1, kS3, {0.0, 0.3, 0.0, 0.0, 0.2, 0.0, 0.5});
  model.set_q(kS2, kS4, 0.7);
  model.set_h_pmf(kS2, kS4, {0.0, 0.0, 0.0, 0.6, 0.0, 0.4});
  expect_matches_solver_at(model, {1, 4, 7, 13});
}

TEST(CurveCacheTest, FullyDenseKernelFromLaplaceSmoothing) {
  // laplace_alpha = 1 gives every unobserved transition a uniform pmf, so
  // both cross kernels are nonzero at every lag: the dense worst case.
  constexpr std::size_t kHorizon = 24;
  TransitionCounts counts(kHorizon);
  std::vector<State> window(kHorizon + 1, State::kS1);
  for (std::size_t i = 9; i < window.size(); ++i) window[i] = State::kS3;
  counts.accumulate(window);
  std::fill(window.begin(), window.end(), State::kS2);
  window[17] = State::kS5;
  counts.accumulate(window);
  const SmpModel model =
      SmpEstimator(EstimatorConfig{.laplace_alpha = 1.0}).build_model(counts);
  ASSERT_GT(model.q(kS1, kS2), 0.0);
  for (std::size_t l = 1; l <= kHorizon; ++l) {
    ASSERT_GT(model.h(kS1, kS2, l), 0.0) << "lag " << l;
    ASSERT_GT(model.h(kS2, kS1, l), 0.0) << "lag " << l;
  }
  expect_matches_solver_at(model, {1, 12, 24, 40});
}

}  // namespace
}  // namespace fgcs
