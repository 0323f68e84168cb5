// The paper's Eq. 3 recursion as written (§5.3, the Fig. 4 algorithm): the
// bit reference for the served path. Production answers come from one
// AbsorptionCurves build (curve_cache.hpp); tests, the A2 ablation's bit
// gate and `fgcs_golden --check` compare it against this plain per-call
// solve bit for bit, as DenseSmpSolver is the tolerance reference.
//
// In the five-state model only S1 and S2 have outgoing transitions, so Q and
// H(m) carry just 8 non-zero (i→k) pairs and only six interval transition
// probabilities are ever needed: P_{i,j}(m) for i ∈ {S1,S2}, j ∈ {S3,S4,S5}.
// The recursion is
//
//   P_1,j(n) = Σ_{l=1}^{n-1} [ H_1,2(l)·Q_1(2)·P_2,j(n−l) + H_1,j(l)·Q_1(j) ]
//              + H_1,j(n)·Q_1(j)
//   P_2,j(n) = symmetric with 1 ↔ 2
//
// and TR(W) = 1 − Σ_{j=3..5} P_init,j(T/d). Cost is O((T/d)²), matching the
// superlinear curve of the paper's Fig. 4.
#pragma once

#include <cstddef>

#include "core/curve_cache.hpp"
#include "core/semi_markov.hpp"
#include "core/states.hpp"

namespace fgcs {

class SparseTrSolver {
 public:
  /// The model must use the FGCS state layout (require_fgcs_model); throws
  /// PreconditionError if not.
  explicit SparseTrSolver(const SmpModel& model);

  /// Solves for a window of `n_steps` discretization ticks starting in
  /// `init` (must be S1 or S2), running both transient rows' recursions to
  /// `n_steps` and reading the requested one.
  TrResult solve(State init, std::size_t n_steps) const;

 private:
  const SmpModel& model_;
};

}  // namespace fgcs
