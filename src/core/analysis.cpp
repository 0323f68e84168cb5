#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "core/curve_cache.hpp"
#include "util/error.hpp"

namespace fgcs {

FailureAnalysis analyze_failure(const SmpModel& model, State init,
                                std::size_t horizon) {
  FGCS_REQUIRE(horizon >= 1);
  FGCS_REQUIRE_MSG(is_available(init), "initial state must be S1 or S2");
  const AbsorptionCurves curves(model, horizon);

  FailureAnalysis analysis;
  // F(m) = Pr(failed by m) = Σ_j P_init,j(m);  E[min(T_fail, horizon)]
  // = Σ_{m=0}^{horizon-1} (1 − F(m)) by the tail-sum formula.
  double mean = 0.0;
  for (std::size_t m = 0; m < horizon; ++m) {
    double failed = 0.0;
    for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj)
      failed += curves.probability(init, jj, m);
    mean += std::max(0.0, 1.0 - failed);
  }
  analysis.mean_ticks_to_failure = mean;

  double total_failed = 0.0;
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    analysis.failure_mode[jj] = curves.probability(init, jj, horizon);
    total_failed += analysis.failure_mode[jj];
  }
  analysis.survival_at_horizon = std::clamp(1.0 - total_failed, 0.0, 1.0);

  analysis.dominant_outcome = State::kS1;  // survival
  double best = analysis.survival_at_horizon;
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    if (analysis.failure_mode[jj] > best) {
      best = analysis.failure_mode[jj];
      analysis.dominant_outcome = kFailureStates[jj];
    }
  }
  return analysis;
}

ConfidenceInterval wilson_interval(std::size_t successes, std::size_t trials,
                                   double z) {
  FGCS_REQUIRE(trials >= 1);
  FGCS_REQUIRE(successes <= trials);
  FGCS_REQUIRE(z > 0);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  ConfidenceInterval ci;
  ci.lower = std::max(0.0, (centre - margin) / denom);
  ci.upper = std::min(1.0, (centre + margin) / denom);
  return ci;
}

}  // namespace fgcs
