// Derived quantities on top of the SMP model and the TR evaluation:
//
//  * mean time to failure (MTTF) — the expectation of the first-passage time
//    into {S3, S4, S5}, bounded by a horizon (sojourns that outlive the
//    horizon contribute the full horizon). A scheduler can size jobs by it.
//  * failure-mode split — which failure state will most likely end a guest.
//  * TR confidence intervals — a Wilson interval on the empirical TR
//    (it is a binomial proportion over eligible test days), used by the
//    evaluation harness to separate model error from sampling noise.
#pragma once

#include <array>
#include <cstddef>

#include "core/semi_markov.hpp"
#include "core/states.hpp"

namespace fgcs {

struct FailureAnalysis {
  /// E[min(first failure time, horizon)] in ticks.
  double mean_ticks_to_failure = 0.0;
  /// Pr(no failure within the horizon).
  double survival_at_horizon = 1.0;
  /// Absorption split at the horizon (S3, S4, S5); sums to 1 − survival.
  std::array<double, 3> failure_mode{0.0, 0.0, 0.0};
  /// Most probable failure mode at the horizon, or nullopt-like: S1 means
  /// "survival dominates every failure mode".
  State dominant_outcome = State::kS1;
};

/// Builds the absorption curves to `horizon` (one O(horizon·k) Eq. 3 pass,
/// see curve_cache.hpp) and integrates the first-passage distribution.
/// `model` must use the 5-state FGCS layout and `init` must be S1 or S2.
FailureAnalysis analyze_failure(const SmpModel& model, State init,
                                std::size_t horizon);

struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 1.0;
  bool contains(double value) const { return value >= lower && value <= upper; }
};

/// Wilson score interval for a binomial proportion (`successes` of `trials`)
/// at the given z (default 1.96 ≈ 95%). Requires trials ≥ 1.
ConfidenceInterval wilson_interval(std::size_t successes, std::size_t trials,
                                   double z = 1.96);

}  // namespace fgcs
