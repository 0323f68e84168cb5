// The paper's per-call temporal-reliability solver exploiting the FGCS
// sparsity (paper §5.3, Eq. 3 and Fig. 3). It is the Fig. 4 algorithm and
// the independent oracle the served path (AbsorptionCurves) is checked
// against bit for bit.
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

#include <array>
#include <cstddef>

#include "core/semi_markov.hpp"
#include "core/solver_scratch.hpp"
#include "core/states.hpp"

namespace fgcs {

class SparseTrSolver {
 public:
  /// The model must use the FGCS state layout (5 states, S3..S5 absorbing,
  /// no transitions out of failure states); throws PreconditionError if not.
  explicit SparseTrSolver(const SmpModel& model);

  struct Result {
    /// Temporal reliability: Pr(no failure state entered within the window).
    double temporal_reliability = 1.0;
    /// Absorption probabilities into S3, S4, S5 respectively.
    std::array<double, 3> p_absorb{0.0, 0.0, 0.0};
  };

  /// Solves for a window of `n_steps` discretization ticks starting in
  /// `init` (must be S1 or S2). Only the requested row's series is
  /// materialized; when the model never crosses into (or back out of) the
  /// other transient state, that row's dead recursion is skipped outright.
  /// An optional SolverScratch recycles the work buffers across calls
  /// (bit-identical results either way).
  Result solve(State init, std::size_t n_steps,
               SolverScratch* scratch = nullptr) const;

 private:
  const SmpModel& model_;
};

}  // namespace fgcs
