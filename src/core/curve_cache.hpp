// Precomputed absorption curves: the Eq. 3 solve as a data structure.
//
// For one (Q, H) model, the six cumulative absorption series
// P_{i,j}(1..T_max) (i ∈ {S1,S2}, j ∈ {S3,S4,S5}) determine EVERY temporal
// reliability the model can produce: TR(W) for a window of n ≤ T_max steps
// is a three-entry table read plus a subtraction. An AbsorptionCurves object
// runs the recursion once, then answers any (initial state, horizon) in
// O(1) — the structure the serving stack caches next to each memoized model
// so warm queries never re-enter the solver (DESIGN.md §5).
//
// Cost: the cross kernels a12/a21 are stored at their nonzero lags only, so
// a build to T costs O(T·k) for k distinct nonzero lags. The estimator's
// empirical pmfs (laplace_alpha = 0) are nonzero only at observed hold
// lengths, so k is small; α > 0 fills every lag and the build degrades to
// the dense O(T²).
//
// Layout: the six series are interleaved in one flat SoA array, 8 lanes per
// tick — [P₁,₃ P₁,₄ P₁,₅ pad P₂,₃ P₂,₄ P₂,₅ pad] — so each visited lag reads
// one contiguous 64-byte row; each series keeps its own accumulator, fed in
// ascending lag order, and every skipped lag would only have added an exact
// +0.0, so every bit of the result is identical to SparseTrSolver::solve on
// the same model and horizon.
//
// Crossover policy: a fresh build at T_max ≥ config.fft_crossover uses
// FastTrSolver's O(n log² n) renewal path (agrees with the recursion to
// ~1e-10, not bit-exact — the default crossover sits far above every window
// the paper's 24-hour grids can produce). extend_to() always CONTINUES the
// direct recursion, growing T_max geometrically and leaving the existing
// prefix bit-for-bit untouched.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/semi_markov.hpp"
#include "core/sparse_solver.hpp"
#include "core/states.hpp"

namespace fgcs {

struct CurveConfig {
  /// Fresh builds at or above this many steps go through the FFT renewal
  /// solver; below it (every realistic window) the direct recursion runs and
  /// results are bit-identical to SparseTrSolver.
  std::size_t fft_crossover = 32768;
};

class AbsorptionCurves {
 public:
  /// Validates the model once (5-state FGCS layout, probability axioms,
  /// absorbing failure states — the checks SparseTrSolver's constructor ran
  /// per solve) and computes the curves up to `t_max` steps. The model is
  /// only read during construction; no reference is retained.
  explicit AbsorptionCurves(const SmpModel& model, std::size_t t_max,
                            CurveConfig config = {});

  /// Largest horizon currently tabulated.
  std::size_t t_max() const { return t_max_; }

  /// O(1): the SparseTrSolver::solve(init, n_steps) result, bit-identical
  /// when the table was built by the direct recursion. Requires
  /// n_steps ≤ t_max() and an available `init`.
  SparseTrSolver::Result result_at(State init, std::size_t n_steps) const;

  /// Grows the table to cover at least `n_steps` (geometric doubling, so a
  /// ramp of ever-longer windows costs amortized O(1) rebuilds) by
  /// continuing the recursion in place: entries ≤ the old t_max() are
  /// preserved bit-for-bit. No-op when already covered.
  void extend_to(std::size_t n_steps);

  /// Raw curve read P_{init,j}(m) for tests (j = failure index 0..2).
  double probability(State init, std::size_t failure_index,
                     std::size_t m) const;

  /// Ticks advanced by the direct recursion so far — the work metric tests
  /// use to pin "one build serves both initial states" (a build to T costs T
  /// ticks; the two SparseTrSolver::solve calls it replaces cost 2·T).
  std::size_t recursion_ticks() const { return recursion_ticks_; }

 private:
  static constexpr std::size_t kLanes = 8;  // [P1,3 P1,4 P1,5 _ P2,3 P2,4 P2,5 _]

  /// One cross-kernel lag: a12 = Q₁(2)·H₁,₂(lag), a21 = Q₂(1)·H₂,₁(lag)
  /// (semi_markov.hpp convention), at least one of them nonzero.
  struct Lag {
    std::size_t lag;
    double a12;
    double a21;
  };

  void compute_rows(std::size_t from_m, std::size_t to_m);

  std::size_t t_max_ = 0;
  std::size_t recursion_ticks_ = 0;
  /// Interleaved weighted direct-absorption pmfs, same 8-lane layout as p_,
  /// holding only the rows with a nonzero lane: stored row r is tick
  /// wd_rows_[r] (ascending).
  std::vector<double> wd_;
  std::vector<std::size_t> wd_rows_;
  /// Cross-transition kernels a12/a21 at the lags where either is nonzero,
  /// ascending — kept so extension never needs the model again.
  std::vector<Lag> kernel_;
  /// Running per-lane cumulative direct absorption at t_max_, carried so
  /// extend_to() resumes the recursion mid-stream.
  std::array<double, kLanes> cum_{};
  /// The curves: lane L of row m is p_[m * kLanes + L].
  std::vector<double> p_;
};

}  // namespace fgcs
