#include "core/sparse_solver.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fgcs {

namespace {

constexpr std::size_t kS1 = index_of(State::kS1);
constexpr std::size_t kS2 = index_of(State::kS2);

bool all_zero(const std::vector<double>& a) {
  return std::all_of(a.begin(), a.end(), [](double v) { return v == 0.0; });
}

}  // namespace

SparseTrSolver::SparseTrSolver(const SmpModel& model) : model_(model) {
  FGCS_REQUIRE_MSG(model.n_states() == kStateCount,
                   "SparseTrSolver requires the 5-state FGCS model");
  model.validate();
  for (const State failure : kFailureStates)
    for (std::size_t to = 0; to < kStateCount; ++to)
      FGCS_REQUIRE_MSG(model.q(index_of(failure), to) == 0.0,
                       "failure states must be absorbing");
}

SparseTrSolver::Result SparseTrSolver::solve(State init, std::size_t n_steps,
                                             SolverScratch* scratch) const {
  FGCS_REQUIRE_MSG(is_available(init),
                   "temporal reliability is defined for available initial states");
  const std::size_t n = n_steps;
  SolverScratch local;
  SolverScratch& s = scratch != nullptr ? *scratch : local;

  const std::size_t read = index_of(init);
  const std::size_t other = read == kS1 ? kS2 : kS1;
  // Kernel INTO the read row (read → other) and back (other → read). When the
  // read row never crosses over, the other row's recursion is dead weight:
  // its values would only ever be multiplied by zeros.
  std::vector<double>& k_out = s.buffer(0);
  std::vector<double>& k_back = s.buffer(1);
  weighted_holding_pmf(model_, read, other, n, k_out);
  weighted_holding_pmf(model_, other, read, n, k_back);
  const bool need_other = !all_zero(k_out);
  const bool other_convolves = need_other && !all_zero(k_back);

  std::vector<double>& d_read = s.buffer(2);
  std::vector<double>& d_other = s.buffer(3);
  std::vector<double>& p_read = s.buffer(4);
  std::vector<double>& p_other = s.buffer(5);

  Result result;
  double absorbed = 0.0;
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    const std::size_t j = index_of(kFailureStates[jj]);
    weighted_holding_pmf(model_, read, j, n, d_read);
    if (need_other) weighted_holding_pmf(model_, other, j, n, d_other);
    p_read.assign(n + 1, 0.0);
    if (need_other) p_other.assign(n + 1, 0.0);

    double cum_read = 0.0;
    double cum_other = 0.0;
    for (std::size_t m = 1; m <= n; ++m) {
      cum_read += d_read[m];
      double conv_read = 0.0;
      if (need_other) {
        cum_other += d_other[m];
        double conv_other = 0.0;
        for (std::size_t l = 1; l < m; ++l) {
          conv_read += k_out[l] * p_other[m - l];
          if (other_convolves) conv_other += k_back[l] * p_read[m - l];
        }
        p_other[m] = cum_other + conv_other;
      }
      p_read[m] = cum_read + conv_read;
    }
    result.p_absorb[jj] = p_read[n];
    absorbed += result.p_absorb[jj];
  }
  result.temporal_reliability = std::clamp(1.0 - absorbed, 0.0, 1.0);
  return result;
}

}  // namespace fgcs
