// Absorption curves: the Eq. 3 solve for both initial states in one pass.
//
// For one (Q, H) model, the six cumulative absorption series
// P_{i,j}(1..T_max) (i ∈ {S1,S2}, j ∈ {S3,S4,S5}) determine every temporal
// reliability the model can produce up to T_max: TR(W) for a window of
// n ≤ T_max steps is a three-entry table read plus a subtraction. An
// AbsorptionCurves object runs the recursion once, at construction, and is
// read-only afterwards. It is the served Eq. 3 path: every prediction builds
// one at the window's horizon and reads both initial states' results from
// it (AvailabilityPredictor::answer, DESIGN.md §5); analyze_failure reads
// the whole series of one row.
//
// Cost: the cross kernels a12/a21 are visited at their nonzero lags only, so
// a build to T costs O(T·k) for k distinct nonzero lags. The estimator's
// empirical pmfs (laplace_alpha = 0) are nonzero only at observed hold
// lengths, so k is small; α > 0 fills every lag and the build degrades to
// the dense O(T²). There is one build path at every horizon.
//
// Layout: the six series are interleaved in one flat SoA array, 8 lanes per
// tick — [P₁,₃ P₁,₄ P₁,₅ pad P₂,₃ P₂,₄ P₂,₅ pad] — so each visited lag reads
// one contiguous 64-byte row; each series keeps its own accumulator, fed in
// ascending lag order, and every skipped lag would only have added an exact
// +0.0, so every bit of the result is identical to the paper's plain
// recursion (SparseTrSolver::solve, the bit reference) on the same model and
// horizon. Row m depends only on rows < m, so a table built to T₁ < T₂
// equals the first T₁ rows of one built to T₂.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/semi_markov.hpp"
#include "core/states.hpp"

namespace fgcs {

/// One Eq. 3 answer: what AbsorptionCurves::result_at and the reference
/// SparseTrSolver::solve both return.
struct TrResult {
  /// Temporal reliability: Pr(no failure state entered within the window).
  double temporal_reliability = 1.0;
  /// Absorption probabilities into S3, S4, S5 respectively.
  std::array<double, 3> p_absorb{0.0, 0.0, 0.0};
};

/// TR = 1 − Σ p_absorb (summed S3, S4, S5 in that order), clamped to [0, 1]:
/// the one place both Eq. 3 paths turn absorption into an answer.
TrResult tr_result(const std::array<double, 3>& p_absorb);

/// The checks every Eq. 3 path runs once per model: the 5-state FGCS layout,
/// the probability axioms (SmpModel::validate) and absorbing failure
/// states. Throws PreconditionError otherwise.
void require_fgcs_model(const SmpModel& model);

class AbsorptionCurves {
 public:
  /// Validates the model once (require_fgcs_model) and computes the curves
  /// up to `t_max` steps. The model is only read during construction; no
  /// reference is retained.
  AbsorptionCurves(const SmpModel& model, std::size_t t_max);

  /// Largest horizon tabulated.
  std::size_t t_max() const { return t_max_; }

  /// O(1): the answer at `n_steps`, bit-identical to the reference
  /// SparseTrSolver::solve(init, n_steps). Requires n_steps ≤ t_max() and an
  /// available `init`.
  TrResult result_at(State init, std::size_t n_steps) const;

  /// Raw curve read P_{init,j}(m) (j = failure index 0..2), m ≤ t_max().
  double probability(State init, std::size_t failure_index,
                     std::size_t m) const;

 private:
  static constexpr std::size_t kLanes = 8;  // [P1,3 P1,4 P1,5 _ P2,3 P2,4 P2,5 _]

  std::size_t t_max_ = 0;
  /// The curves: lane L of row m is p_[m * kLanes + L].
  std::vector<double> p_;
};

}  // namespace fgcs
