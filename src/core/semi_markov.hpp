// Discrete-time semi-Markov process model (paper §4).
//
// An SMP is the tuple (S, Q, H): Q_i(k) is the probability that a process
// which entered state i next transitions to k, and H_{i,k}(l) is the
// probability that it holds in i for exactly l ticks before that transition.
//
// Both distributions may be *defective*: Σ_k Q_i(k) < 1 means "with the
// remaining probability, the process never left i within the observation
// horizon" (right-censored sojourns, see SmpEstimator). The solvers treat
// missing mass as survival, which is exactly the semantics the temporal-
// reliability computation needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/states.hpp"
#include "util/rng.hpp"

namespace fgcs {

class SmpModel {
 public:
  /// `horizon` bounds the holding-time support: H_{i,k}(l) for l in 1..horizon.
  SmpModel(std::size_t n_states, std::size_t horizon);

  std::size_t n_states() const { return n_states_; }
  std::size_t horizon() const { return horizon_; }

  double q(std::size_t from, std::size_t to) const;
  void set_q(std::size_t from, std::size_t to, double probability);

  /// Holding-time pmf value H_{from,to}(l); l in 1..horizon.
  double h(std::size_t from, std::size_t to, std::size_t l) const;

  /// Installs the pmf for (from,to); `pmf[l-1]` is H(l). The vector may be
  /// shorter than the horizon (zero-padded) but not longer, and must sum
  /// to at most 1 (+ eps).
  void set_h_pmf(std::size_t from, std::size_t to, std::vector<double> pmf);

  std::span<const double> h_pmf(std::size_t from, std::size_t to) const;

  /// Σ_k Q_i(k) — at most 1; the deficit is censored (survivor) mass.
  double exit_mass(std::size_t from) const;

  /// Pr(hold in `from` for more than `l` ticks), counting censored mass as
  /// never leaving: W_i(l) = 1 − Σ_k Q_i(k)·Σ_{m≤l} H_{i,k}(m).
  double survival(std::size_t from, std::size_t l) const;

  /// Throws PreconditionError if any row/pmf violates probability axioms.
  void validate() const;

  /// Draws one trajectory step: given the current state, samples (hold, next).
  /// Returns false if the process stays in `from` forever (censored mass hit).
  struct Step {
    std::size_t hold = 0;
    std::size_t next = 0;
  };
  bool sample_step(std::size_t from, Rng& rng, Step& out) const;

 private:
  std::size_t pair_index(std::size_t from, std::size_t to) const {
    return from * n_states_ + to;
  }

  std::size_t n_states_;
  std::size_t horizon_;
  std::vector<double> q_;                     // n_states² entries
  std::vector<std::vector<double>> h_;        // pmf per (from,to)
};

/// Generic dense solver: the textbook first-passage recursion over all state
/// pairs. O(S²·n²) — the tolerance reference for the Eq. 3 paths
/// (AbsorptionCurves, and SparseTrSolver, its bit reference) and a base for
/// experimenting with alternative state spaces.
class DenseSmpSolver {
 public:
  explicit DenseSmpSolver(const SmpModel& model);

  /// First-passage probabilities F_{init,j}(n) = Pr(reach j within n ticks |
  /// entered init at tick 0), for every j, treating each target j as
  /// absorbing. This is the paper's Eq. 2 specialization used for TR.
  /// Requires the actual absorbing states to have no outgoing transitions.
  std::vector<double> first_passage(std::size_t init, std::size_t n_steps) const;

 private:
  const SmpModel& model_;
};

/// Monte-Carlo estimate of Pr(no failure state entered within n ticks),
/// used as ground truth in tests. `failure` flags absorbing failure states.
double monte_carlo_reliability(const SmpModel& model, std::size_t init,
                               std::size_t n_steps,
                               std::span<const bool> failure,
                               std::size_t n_trajectories, Rng& rng);

/// The weighted holding-time pmf a(l) = Q_{from,to}·H_{from,to}(l) every Eq. 3
/// recursion convolves with, in the ONE canonical indexing convention shared
/// by curve_cache and sparse_solver:
///
///   lag-indexed — a[l] is the lag-l weight, a[0] == 0 (strict causality),
///   and the vector has n + 1 entries (lags 0..n), zero-padded past the
///   pmf's support.
///
/// Historically the solvers carried private copies with *different*
/// conventions (lag l at a[l-1] vs a[l]) — an off-by-one trap this helper
/// retires; tests/core/sparse_solver_test.cpp pins the convention.
std::vector<double> weighted_holding_pmf(const SmpModel& model,
                                         std::size_t from, std::size_t to,
                                         std::size_t n);

/// Process-wide count of SmpModel::validate() runs (relaxed atomic).
/// Test instrumentation: a prediction validates its model once, in its one
/// curve build, and a warm cache hit never does — tests pin that by diffing
/// this counter around warm queries.
std::uint64_t smp_validate_calls();

}  // namespace fgcs
