#include "core/curve_cache.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace fgcs {

namespace {

constexpr std::size_t kS1 = index_of(State::kS1);
constexpr std::size_t kS2 = index_of(State::kS2);

/// One cross-kernel lag: a12 = Q₁(2)·H₁,₂(lag), a21 = Q₂(1)·H₂,₁(lag)
/// (semi_markov.hpp convention), at least one of them nonzero.
struct Lag {
  std::size_t lag;
  double a12;
  double a21;
};

}  // namespace

TrResult tr_result(const std::array<double, 3>& p_absorb) {
  double absorbed = 0.0;
  for (const double p : p_absorb) absorbed += p;
  return {.temporal_reliability = std::clamp(1.0 - absorbed, 0.0, 1.0),
          .p_absorb = p_absorb};
}

void require_fgcs_model(const SmpModel& model) {
  FGCS_REQUIRE_MSG(model.n_states() == kStateCount,
                   "Eq. 3 requires the 5-state FGCS model");
  model.validate();
  for (const State failure : kFailureStates)
    for (std::size_t to = 0; to < kStateCount; ++to)
      FGCS_REQUIRE_MSG(model.q(index_of(failure), to) == 0.0,
                       "failure states must be absorbing");
}

AbsorptionCurves::AbsorptionCurves(const SmpModel& model, std::size_t t_max)
    : t_max_(t_max) {
  require_fgcs_model(model);

  // Cross-transition kernels a12/a21 at the lags where either is nonzero: a
  // lag zero in both adds exact +0.0s to non-negative accumulators, so
  // skipping it changes no bit.
  const std::size_t kernel_limit = std::max(model.h_pmf(kS1, kS2).size(),
                                            model.h_pmf(kS2, kS1).size());
  const std::vector<double> a12 =
      weighted_holding_pmf(model, kS1, kS2, kernel_limit);
  const std::vector<double> a21 =
      weighted_holding_pmf(model, kS2, kS1, kernel_limit);
  std::vector<Lag> kernel;
  for (std::size_t l = 1; l <= kernel_limit; ++l)
    if (a12[l] != 0.0 || a21[l] != 0.0) kernel.push_back({l, a12[l], a21[l]});

  // The six weighted direct-absorption pmfs, interleaved into the same
  // 8-lane layout as the curves; only rows with a nonzero lane are kept, so
  // the cumulative update is one row read per observed hold length.
  std::size_t wd_limit = 0;
  for (const State failure : kFailureStates)
    wd_limit = std::max({wd_limit, model.h_pmf(kS1, index_of(failure)).size(),
                         model.h_pmf(kS2, index_of(failure)).size()});
  std::array<std::vector<double>, kLanes> lanes;
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj)
    for (std::size_t row = 0; row < 2; ++row)
      lanes[4 * row + jj] = weighted_holding_pmf(
          model, row == 0 ? kS1 : kS2, index_of(kFailureStates[jj]), wd_limit);
  std::vector<double> wd;             // stored row r is tick wd_rows[r]
  std::vector<std::size_t> wd_rows;   // ascending
  for (std::size_t m = 1; m <= wd_limit; ++m) {
    std::array<double, kLanes> row{};
    for (std::size_t lane = 0; lane < kLanes; ++lane)
      if (!lanes[lane].empty()) row[lane] = lanes[lane][m];
    if (std::all_of(row.begin(), row.end(), [](double v) { return v == 0.0; }))
      continue;
    wd_rows.push_back(m);
    wd.insert(wd.end(), row.begin(), row.end());
  }

  // Row 0 is all zeros: nothing is absorbed in zero ticks.
  p_.assign((t_max + 1) * kLanes, 0.0);
  std::array<double, kLanes> cum{};  // per-lane cumulative direct absorption
  std::size_t r = 0;                 // next stored direct-absorption row
  for (std::size_t m = 1; m <= t_max; ++m) {
    if (r < wd_rows.size() && wd_rows[r] == m) {
      const double* direct = &wd[r++ * kLanes];
      for (std::size_t lane = 0; lane < kLanes; ++lane)
        cum[lane] += direct[lane];
    }
    // One accumulator per series, fed in ascending lag order: per-series
    // summation order matches the reference SparseTrSolver's scalar
    // recursion, and the lags skipped (zero weight, or ≥ m) only ever add
    // exact zeros there, so every produced double is bit-identical.
    double acc[kLanes] = {};
    for (const Lag& k : kernel) {
      if (k.lag >= m) break;
      const double* prev = &p_[(m - k.lag) * kLanes];
      for (std::size_t jj = 0; jj < 3; ++jj) acc[jj] += k.a12 * prev[4 + jj];
      for (std::size_t jj = 0; jj < 3; ++jj) acc[4 + jj] += k.a21 * prev[jj];
    }
    double* row = &p_[m * kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane)
      row[lane] = cum[lane] + acc[lane];
  }
}

TrResult AbsorptionCurves::result_at(State init, std::size_t n_steps) const {
  FGCS_REQUIRE_MSG(is_available(init),
                   "temporal reliability is defined for available initial states");
  FGCS_REQUIRE_MSG(n_steps <= t_max_, "window beyond the tabulated horizon");
  const double* row = &p_[n_steps * kLanes + 4 * index_of(init)];
  return tr_result({row[0], row[1], row[2]});
}

double AbsorptionCurves::probability(State init, std::size_t failure_index,
                                     std::size_t m) const {
  FGCS_REQUIRE(is_available(init) && failure_index < 3 && m <= t_max_);
  return p_[m * kLanes + 4 * index_of(init) + failure_index];
}

}  // namespace fgcs
