#include "core/sparse_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/curve_cache.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

// The six series P_{i,j}(m), m = 0..n, indexed [i][j-2], read off one
// AbsorptionCurves build: the served path the reference recursion must
// equal bit for bit.
using Series = std::array<std::array<std::vector<double>, 3>, 2>;

Series curve_series(const SmpModel& model, std::size_t n) {
  const AbsorptionCurves curves(model, n);
  Series series;
  for (const State init : {State::kS1, State::kS2})
    for (std::size_t jj = 0; jj < 3; ++jj)
      for (std::size_t m = 0; m <= n; ++m)
        series[index_of(init)][jj].push_back(curves.probability(init, jj, m));
  return series;
}

TEST(SparseSolverTest, RejectsWrongStateCount) {
  SmpModel model(3, 4);
  EXPECT_THROW(SparseTrSolver{model}, PreconditionError);
}

TEST(SparseSolverTest, RejectsNonAbsorbingFailureStates) {
  SmpModel model(kStateCount, 4);
  model.set_q(2, 0, 1.0);  // S3 → S1: failures must be absorbing
  model.set_h_pmf(2, 0, {1.0});
  EXPECT_THROW(SparseTrSolver{model}, PreconditionError);
}

TEST(SparseSolverTest, RejectsFailureInitialState) {
  Rng rng(1);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const SparseTrSolver solver(model);
  EXPECT_THROW(solver.solve(State::kS3, 4), PreconditionError);
}

TEST(SparseSolverTest, EmptyModelPredictsCertainSurvival) {
  // A machine with no observed transitions: defective rows everywhere.
  SmpModel model(kStateCount, 8);
  const SparseTrSolver solver(model);
  const auto result = solver.solve(State::kS1, 8);
  EXPECT_DOUBLE_EQ(result.temporal_reliability, 1.0);
}

TEST(SparseSolverTest, DirectAbsorptionMatchesHandComputation) {
  // S1 → S3 with Q = 0.4 and hold exactly 2 ticks; rest censored.
  SmpModel model(kStateCount, 8);
  model.set_q(0, 2, 0.4);
  model.set_h_pmf(0, 2, {0.0, 1.0});
  const SparseTrSolver solver(model);
  EXPECT_DOUBLE_EQ(solver.solve(State::kS1, 1).temporal_reliability, 1.0);
  const auto r2 = solver.solve(State::kS1, 2);
  EXPECT_NEAR(r2.temporal_reliability, 0.6, 1e-12);
  EXPECT_NEAR(r2.p_absorb[0], 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(r2.p_absorb[1], 0.0);
  EXPECT_DOUBLE_EQ(r2.p_absorb[2], 0.0);
}

TEST(SparseSolverTest, TwoHopThroughS2) {
  // S1 → S2 (hold 1, prob 1), S2 → S5 (hold 1, prob 1): absorbed at tick 2.
  SmpModel model(kStateCount, 8);
  model.set_q(0, 1, 1.0);
  model.set_h_pmf(0, 1, {1.0});
  model.set_q(1, 4, 1.0);
  model.set_h_pmf(1, 4, {1.0});
  const SparseTrSolver solver(model);
  EXPECT_DOUBLE_EQ(solver.solve(State::kS1, 1).temporal_reliability, 1.0);
  const auto r = solver.solve(State::kS1, 2);
  EXPECT_NEAR(r.p_absorb[2], 1.0, 1e-12);  // S5
  EXPECT_NEAR(r.temporal_reliability, 0.0, 1e-12);
  // Starting in S2 it only takes one tick.
  EXPECT_NEAR(solver.solve(State::kS2, 1).p_absorb[2], 1.0, 1e-12);
}

class SparseVsDenseTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDenseTest, SparseEqualsGenericSolver) {
  Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  const SmpModel model =
      test::random_fgcs_model(10, rng, /*allow_defective=*/GetParam() % 3 == 0);
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam());

  const SparseTrSolver sparse(model);
  const DenseSmpSolver dense(model);

  for (const State init : {State::kS1, State::kS2}) {
    const auto result = sparse.solve(init, n);
    const std::vector<double> fp = dense.first_passage(index_of(init), n);
    EXPECT_NEAR(result.p_absorb[0], fp[2], 1e-10);
    EXPECT_NEAR(result.p_absorb[1], fp[3], 1e-10);
    EXPECT_NEAR(result.p_absorb[2], fp[4], 1e-10);
    EXPECT_NEAR(result.temporal_reliability, 1.0 - (fp[2] + fp[3] + fp[4]),
                1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparseVsDenseTest, ::testing::Range(0, 20));

class TrMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(TrMonotonicityTest, TrDecreasesWithWindowLength) {
  Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  const SmpModel model = test::random_fgcs_model(6, rng);
  const SparseTrSolver solver(model);
  double previous = 1.0;
  for (std::size_t n = 1; n <= 30; ++n) {
    const double tr = solver.solve(State::kS1, n).temporal_reliability;
    EXPECT_LE(tr, previous + 1e-12) << "n=" << n;
    EXPECT_GE(tr, 0.0);
    EXPECT_LE(tr, 1.0);
    previous = tr;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrMonotonicityTest, ::testing::Range(0, 10));

// Pins the ONE shared weighted-pmf convention (semi_markov.hpp): the kernel
// is lag-indexed — lag l at a[l], a[0] == 0, n+1 entries — with the model's
// holding pmf entry for l ticks living at pmf[l-1]. The curve build and the
// reference both consume this helper; this test is the convention's anchor.
TEST(SparseSolverTest, SharedWeightedPmfConvention) {
  SmpModel model(kStateCount, 8);
  model.set_q(0, 2, 0.4);
  model.set_h_pmf(0, 2, {0.5, 0.25, 0.0, 0.25});

  const std::vector<double> a = weighted_holding_pmf(model, 0, 2, 6);
  ASSERT_EQ(a.size(), 7u);  // n+1 entries
  EXPECT_EQ(a[0], 0.0);     // no zero-lag transitions
  EXPECT_DOUBLE_EQ(a[1], 0.4 * 0.5);
  EXPECT_DOUBLE_EQ(a[2], 0.4 * 0.25);
  EXPECT_EQ(a[3], 0.0);
  EXPECT_DOUBLE_EQ(a[4], 0.4 * 0.25);
  EXPECT_EQ(a[5], 0.0);  // zero-padded past the pmf support
  EXPECT_EQ(a[6], 0.0);

  // Truncation: n below the support simply cuts the tail.
  const std::vector<double> trunc = weighted_holding_pmf(model, 0, 2, 2);
  ASSERT_EQ(trunc.size(), 3u);
  EXPECT_DOUBLE_EQ(trunc[1], 0.4 * 0.5);
  EXPECT_DOUBLE_EQ(trunc[2], 0.4 * 0.25);

  // A missing transition yields an all-zero kernel of the right shape.
  const std::vector<double> zero = weighted_holding_pmf(model, 1, 3, 4);
  ASSERT_EQ(zero.size(), 5u);
  for (const double v : zero) EXPECT_EQ(v, 0.0);
}

// Both Eq. 3 paths read the shared lag-indexed kernel, so both must agree
// with the dense textbook recursion, which indexes the raw pmfs itself, on
// random models — including horizons at and just past the pmf support, where
// the old per-solver helpers disagreed (one indexing lag l at a[l-1], the
// other at a[l]).
TEST(SparseSolverTest, UnifiedKernelKeepsSolversEquivalent) {
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(static_cast<std::uint64_t>(8800 + trial));
    const std::size_t support = 3 + static_cast<std::size_t>(trial % 5);
    const SmpModel model =
        test::random_fgcs_model(support, rng,
                                /*allow_defective=*/trial % 2 == 0);
    const SparseTrSolver sparse(model);
    const DenseSmpSolver dense(model);
    const AbsorptionCurves curves(model, 48);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, support,
                                support + 1, std::size_t{48}})
      for (const State init : {State::kS1, State::kS2}) {
        const auto result = sparse.solve(init, n);
        const std::vector<double> fp = dense.first_passage(index_of(init), n);
        for (std::size_t jj = 0; jj < 3; ++jj) {
          EXPECT_NEAR(result.p_absorb[jj], fp[2 + jj], 1e-10)
              << "trial=" << trial << " n=" << n << " jj=" << jj;
          EXPECT_NEAR(curves.probability(init, jj, n), fp[2 + jj], 1e-10)
              << "trial=" << trial << " n=" << n << " jj=" << jj;
        }
      }
  }
}

// When the read row never crosses into the other transient state, the other
// row's values only ever multiply zero kernel weights. The reference still
// runs both rows, and must return exactly what the curves produce.
TEST(SparseSolverTest, DecoupledRowsStillExact) {
  // S1 → S3 only; S2 → S4 only. Neither row feeds the other.
  SmpModel model(kStateCount, 8);
  model.set_q(0, 2, 0.5);
  model.set_h_pmf(0, 2, {0.25, 0.25, 0.25, 0.25});
  model.set_q(1, 3, 0.8);
  model.set_h_pmf(1, 3, {0.5, 0.5});

  const SparseTrSolver solver(model);
  const auto series = curve_series(model, 8);
  for (const State init : {State::kS1, State::kS2}) {
    const std::size_t row = index_of(init);
    for (const std::size_t n : {1u, 4u, 8u}) {
      const auto result = solver.solve(init, n);
      double absorbed = 0.0;
      for (std::size_t jj = 0; jj < 3; ++jj) {
        EXPECT_EQ(result.p_absorb[jj], series[row][jj][n]) << "n=" << n;
        absorbed += series[row][jj][n];
      }
      EXPECT_EQ(result.temporal_reliability,
                std::clamp(1.0 - absorbed, 0.0, 1.0));
    }
  }
}

TEST(SparseSolverTest, OneWayCouplingStillExact) {
  // S1 feeds S2 but S2 never returns: solving from S1 needs S2's row, while
  // the back-kernel is all zeros; solving from S2 never reads S1's row.
  SmpModel model(kStateCount, 8);
  model.set_q(0, 1, 0.6);
  model.set_h_pmf(0, 1, {1.0});
  model.set_q(0, 4, 0.2);
  model.set_h_pmf(0, 4, {0.0, 1.0});
  model.set_q(1, 2, 0.7);
  model.set_h_pmf(1, 2, {0.5, 0.5});

  const SparseTrSolver solver(model);
  const auto series = curve_series(model, 8);
  for (const State init : {State::kS1, State::kS2}) {
    const std::size_t row = index_of(init);
    const auto result = solver.solve(init, 8);
    for (std::size_t jj = 0; jj < 3; ++jj)
      EXPECT_EQ(result.p_absorb[jj], series[row][jj][8]);
  }
}

TEST(SparseSolverTest, SolveMatchesSeriesOnRandomModelsExactly) {
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(static_cast<std::uint64_t>(4400 + trial));
    const SmpModel model =
        test::random_fgcs_model(3 + trial % 7, rng,
                                /*allow_defective=*/trial % 3 == 0);
    const SparseTrSolver solver(model);
    const std::size_t n = 1 + static_cast<std::size_t>(trial);
    const auto series = curve_series(model, n);
    for (const State init : {State::kS1, State::kS2}) {
      const auto result = solver.solve(init, n);
      for (std::size_t jj = 0; jj < 3; ++jj)
        EXPECT_EQ(result.p_absorb[jj], series[index_of(init)][jj][n])
            << "trial=" << trial;
    }
  }
}

TEST(SparseSolverTest, SeriesStartsAtZero) {
  Rng rng(77);
  const SmpModel model = test::random_fgcs_model(5, rng);
  const AbsorptionCurves curves(model, 6);
  for (const State init : {State::kS1, State::kS2})
    for (std::size_t jj = 0; jj < 3; ++jj) {
      EXPECT_EQ(curves.probability(init, jj, 0), 0.0);
      // Absorption probabilities are nondecreasing in m.
      for (std::size_t m = 1; m <= 6; ++m)
        EXPECT_GE(curves.probability(init, jj, m) + 1e-12,
                  curves.probability(init, jj, m - 1));
    }
}

}  // namespace
}  // namespace fgcs
