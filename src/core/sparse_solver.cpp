#include "core/sparse_solver.hpp"

#include "util/error.hpp"

namespace fgcs {

SparseTrSolver::SparseTrSolver(const SmpModel& model) : model_(model) {
  require_fgcs_model(model);
}

TrResult SparseTrSolver::solve(State init, std::size_t n_steps) const {
  FGCS_REQUIRE_MSG(is_available(init),
                   "temporal reliability is defined for available initial states");
  const std::size_t n = n_steps;
  const std::size_t read = index_of(init);
  const std::size_t other = read == index_of(State::kS1)
                                ? index_of(State::kS2)
                                : index_of(State::kS1);
  // Cross kernels: read → other, and back.
  const std::vector<double> k_out =
      weighted_holding_pmf(model_, read, other, n);
  const std::vector<double> k_back =
      weighted_holding_pmf(model_, other, read, n);

  std::array<double, 3> p_absorb{};
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    const std::size_t j = index_of(kFailureStates[jj]);
    const std::vector<double> d_read = weighted_holding_pmf(model_, read, j, n);
    const std::vector<double> d_other =
        weighted_holding_pmf(model_, other, j, n);
    std::vector<double> p_read(n + 1, 0.0);
    std::vector<double> p_other(n + 1, 0.0);

    double cum_read = 0.0;
    double cum_other = 0.0;
    for (std::size_t m = 1; m <= n; ++m) {
      cum_read += d_read[m];
      cum_other += d_other[m];
      double conv_read = 0.0;
      double conv_other = 0.0;
      for (std::size_t l = 1; l < m; ++l) {
        conv_read += k_out[l] * p_other[m - l];
        conv_other += k_back[l] * p_read[m - l];
      }
      p_read[m] = cum_read + conv_read;
      p_other[m] = cum_other + conv_other;
    }
    p_absorb[jj] = p_read[n];
  }
  return tr_result(p_absorb);
}

}  // namespace fgcs
