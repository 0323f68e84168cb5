#include "core/semi_markov.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace fgcs {

namespace {
constexpr double kProbEps = 1e-9;

std::atomic<std::uint64_t> g_validate_calls{0};
}

SmpModel::SmpModel(std::size_t n_states, std::size_t horizon)
    : n_states_(n_states),
      horizon_(horizon),
      q_(n_states * n_states, 0.0),
      h_(n_states * n_states) {
  FGCS_REQUIRE(n_states >= 2);
  FGCS_REQUIRE(horizon >= 1);
}

double SmpModel::q(std::size_t from, std::size_t to) const {
  FGCS_REQUIRE(from < n_states_ && to < n_states_);
  return q_[pair_index(from, to)];
}

void SmpModel::set_q(std::size_t from, std::size_t to, double probability) {
  FGCS_REQUIRE(from < n_states_ && to < n_states_);
  FGCS_REQUIRE_MSG(probability >= 0.0 && probability <= 1.0 + kProbEps,
                   "transition probability out of range");
  FGCS_REQUIRE_MSG(from != to, "SMP embedded chain has no self-transitions");
  q_[pair_index(from, to)] = probability;
}

double SmpModel::h(std::size_t from, std::size_t to, std::size_t l) const {
  FGCS_REQUIRE(from < n_states_ && to < n_states_);
  FGCS_REQUIRE_MSG(l >= 1 && l <= horizon_, "holding time out of range");
  const auto& pmf = h_[pair_index(from, to)];
  return l - 1 < pmf.size() ? pmf[l - 1] : 0.0;
}

void SmpModel::set_h_pmf(std::size_t from, std::size_t to,
                         std::vector<double> pmf) {
  FGCS_REQUIRE(from < n_states_ && to < n_states_);
  FGCS_REQUIRE_MSG(pmf.size() <= horizon_, "pmf longer than the horizon");
  double total = 0.0;
  for (double p : pmf) {
    FGCS_REQUIRE_MSG(p >= 0.0, "pmf entries must be non-negative");
    total += p;
  }
  FGCS_REQUIRE_MSG(total <= 1.0 + kProbEps, "pmf mass exceeds 1");
  h_[pair_index(from, to)] = std::move(pmf);
}

std::span<const double> SmpModel::h_pmf(std::size_t from, std::size_t to) const {
  FGCS_REQUIRE(from < n_states_ && to < n_states_);
  return h_[pair_index(from, to)];
}

double SmpModel::exit_mass(std::size_t from) const {
  FGCS_REQUIRE(from < n_states_);
  double total = 0.0;
  for (std::size_t to = 0; to < n_states_; ++to) total += q_[pair_index(from, to)];
  return total;
}

double SmpModel::survival(std::size_t from, std::size_t l) const {
  FGCS_REQUIRE(from < n_states_);
  double exited = 0.0;
  for (std::size_t to = 0; to < n_states_; ++to) {
    const double q_ik = q_[pair_index(from, to)];
    if (q_ik == 0.0) continue;
    const auto& pmf = h_[pair_index(from, to)];
    const std::size_t limit = std::min(l, pmf.size());
    double mass = 0.0;
    for (std::size_t m = 0; m < limit; ++m) mass += pmf[m];
    exited += q_ik * mass;
  }
  return std::max(0.0, 1.0 - exited);
}

void SmpModel::validate() const {
  g_validate_calls.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t from = 0; from < n_states_; ++from) {
    const double row = exit_mass(from);
    FGCS_REQUIRE_MSG(row <= 1.0 + kProbEps, "Q row mass exceeds 1");
    for (std::size_t to = 0; to < n_states_; ++to) {
      const double q_ik = q_[pair_index(from, to)];
      const auto& pmf = h_[pair_index(from, to)];
      const double mass = std::accumulate(pmf.begin(), pmf.end(), 0.0);
      FGCS_REQUIRE_MSG(mass <= 1.0 + kProbEps, "H pmf mass exceeds 1");
      // A used transition must have a holding-time distribution.
      FGCS_REQUIRE_MSG(q_ik == 0.0 || mass > 0.0,
                       "transition with positive Q but empty H pmf");
    }
  }
}

bool SmpModel::sample_step(std::size_t from, Rng& rng, Step& out) const {
  FGCS_REQUIRE(from < n_states_);
  double u = rng.uniform();
  std::size_t next = n_states_;
  for (std::size_t to = 0; to < n_states_; ++to) {
    const double q_ik = q_[pair_index(from, to)];
    if (u < q_ik) {
      next = to;
      break;
    }
    u -= q_ik;
  }
  if (next == n_states_) return false;  // censored mass: never leaves
  const auto& pmf = h_[pair_index(from, next)];
  const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  if (total <= 0.0) return false;
  double v = rng.uniform() * total;
  for (std::size_t l = 0; l < pmf.size(); ++l) {
    if (v < pmf[l]) {
      out.hold = l + 1;
      out.next = next;
      return true;
    }
    v -= pmf[l];
  }
  out.hold = pmf.size();
  out.next = next;
  return true;
}

// ---------------------------------------------------------------------------

DenseSmpSolver::DenseSmpSolver(const SmpModel& model) : model_(model) {
  model.validate();
}

std::vector<double> DenseSmpSolver::first_passage(std::size_t init,
                                                  std::size_t n_steps) const {
  const std::size_t s = model_.n_states();
  FGCS_REQUIRE(init < s);
  // f[j][m][i] = Pr(first passage from i to j within m ticks).
  // Computed per target j; target treated as absorbing.
  std::vector<double> result(s, 0.0);
  for (std::size_t j = 0; j < s; ++j) {
    if (j == init) {
      result[j] = 1.0;  // already there on entry
      continue;
    }
    // f[m*s + i]
    std::vector<double> f((n_steps + 1) * s, 0.0);
    for (std::size_t m = 0; m <= n_steps; ++m) f[m * s + j] = 1.0;
    for (std::size_t m = 1; m <= n_steps; ++m) {
      for (std::size_t i = 0; i < s; ++i) {
        if (i == j) continue;
        double acc = 0.0;
        for (std::size_t k = 0; k < s; ++k) {
          const double q_ik = model_.q(i, k);
          if (q_ik == 0.0) continue;
          const auto pmf = model_.h_pmf(i, k);
          const std::size_t l_max = std::min(m, pmf.size());
          double inner = 0.0;
          for (std::size_t l = 1; l <= l_max; ++l)
            inner += pmf[l - 1] * f[(m - l) * s + k];
          acc += q_ik * inner;
        }
        f[m * s + i] = acc;
      }
    }
    result[j] = f[n_steps * s + init];
  }
  return result;
}

double monte_carlo_reliability(const SmpModel& model, std::size_t init,
                               std::size_t n_steps,
                               std::span<const bool> failure,
                               std::size_t n_trajectories, Rng& rng) {
  FGCS_REQUIRE(failure.size() == model.n_states());
  FGCS_REQUIRE(n_trajectories > 0);
  if (failure[init]) return 0.0;
  std::size_t survived = 0;
  for (std::size_t t = 0; t < n_trajectories; ++t) {
    std::size_t state = init;
    std::size_t tick = 0;
    for (;;) {
      SmpModel::Step step;
      if (!model.sample_step(state, rng, step)) {
        ++survived;  // censored: never leaves the current (available) state
        break;
      }
      tick += step.hold;
      if (tick > n_steps) {
        ++survived;  // next transition lands beyond the window
        break;
      }
      if (failure[step.next]) break;
      state = step.next;
    }
  }
  return static_cast<double>(survived) / static_cast<double>(n_trajectories);
}

std::vector<double> weighted_holding_pmf(const SmpModel& model,
                                         std::size_t from, std::size_t to,
                                         std::size_t n) {
  std::vector<double> a(n + 1, 0.0);
  const double q = model.q(from, to);
  if (q == 0.0) return a;
  const auto pmf = model.h_pmf(from, to);
  const std::size_t limit = std::min(n, pmf.size());
  for (std::size_t l = 1; l <= limit; ++l) a[l] = q * pmf[l - 1];
  return a;
}

std::uint64_t smp_validate_calls() {
  return g_validate_calls.load(std::memory_order_relaxed);
}

}  // namespace fgcs
