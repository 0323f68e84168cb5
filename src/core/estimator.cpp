#include "core/estimator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fgcs {

TransitionCounts::TransitionCounts(std::size_t horizon)
    : horizon_(horizon), counts_(2 * kStateCount * horizon, 0) {
  FGCS_REQUIRE(horizon >= 1);
}

void TransitionCounts::accumulate(std::span<const State> states) {
  FGCS_REQUIRE_MSG(states.size() <= horizon_ + 1,
                   "state sequence longer than the counting horizon");
  std::size_t i = 0;
  const std::size_t n = states.size();
  if (n > 0 && is_available(states[0])) ++initial_[index_of(states[0])];
  while (i < n) {
    const State s = states[i];
    // The model's failure states are absorbing: for a guest, the window ends
    // at its first failure. Anything the host does afterwards (recovering,
    // failing again) is invisible to first-passage estimation — counting it
    // would inflate the survivor mass and bias TR upward.
    if (is_failure(s)) break;
    std::size_t j = i;
    while (j < n && states[j] == s) ++j;
    const std::size_t from = index_of(s);
    const std::size_t hold = j - i;
    if (j < n) {
      ++counts_[slot(from, index_of(states[j]), std::min(hold, horizon_))];
    } else {
      ++censored_[from];
    }
    i = j;
  }
}

std::uint32_t TransitionCounts::count(State from, State to, std::size_t hold) const {
  FGCS_REQUIRE(is_available(from));
  FGCS_REQUIRE(hold >= 1 && hold <= horizon_);
  return counts_[slot(index_of(from), index_of(to), hold)];
}

std::uint32_t TransitionCounts::exits(State from, State to) const {
  FGCS_REQUIRE(is_available(from));
  std::uint32_t total = 0;
  for (std::size_t hold = 1; hold <= horizon_; ++hold)
    total += counts_[slot(index_of(from), index_of(to), hold)];
  return total;
}

std::uint32_t TransitionCounts::censored(State from) const {
  FGCS_REQUIRE(is_available(from));
  return censored_[index_of(from)];
}

std::uint32_t TransitionCounts::entries(State from) const {
  FGCS_REQUIRE(is_available(from));
  std::uint32_t total = censored(from);
  for (std::size_t to = 0; to < kStateCount; ++to)
    total += exits(from, state_from_index(to));
  return total;
}

State TransitionCounts::majority_initial_state() const {
  return initial_[index_of(State::kS2)] > initial_[index_of(State::kS1)]
             ? State::kS2
             : State::kS1;
}

// ---------------------------------------------------------------------------

SmpEstimator::SmpEstimator(EstimatorConfig config) : config_(config) {
  validate(config_.thresholds);
  FGCS_REQUIRE(config_.laplace_alpha >= 0.0);
}

std::vector<std::int64_t> SmpEstimator::training_days_for(
    const MachineTrace& trace, std::int64_t target_day,
    const TimeWindow& window) const {
  std::vector<std::int64_t> days;
  training_days_for(trace, target_day, window, days);
  return days;
}

void SmpEstimator::training_days_for(const MachineTrace& trace,
                                     std::int64_t target_day,
                                     const TimeWindow& window,
                                     std::vector<std::int64_t>& out) const {
  validate(window);
  out.clear();
  const DayType type = trace.day_type(target_day);
  const std::size_t n =
      config_.training_days == 0
          ? static_cast<std::size_t>(std::max<std::int64_t>(trace.day_count(), 0))
          : config_.training_days;
  // Walk backwards so we can skip days whose window data is incomplete
  // (e.g. a midnight-wrapping window on the last recorded day).
  for (std::int64_t d = target_day - 1; d >= 0 && out.size() < n; --d) {
    if (trace.day_type(d) != type) continue;
    if (!trace.window_in_range(d, window)) continue;
    out.push_back(d);
  }
  std::reverse(out.begin(), out.end());
}

TransitionCounts SmpEstimator::count_transitions(
    const MachineTrace& trace, std::span<const std::int64_t> days,
    const TimeWindow& window) const {
  validate(window);
  const StateClassifier classifier(config_.thresholds, trace.sampling_period());
  TransitionCounts counts(window.steps(trace.sampling_period()));
  for (const std::int64_t day : days) {
    const std::vector<State> states = classifier.classify_window(trace, day, window);
    counts.accumulate(states);
  }
  return counts;
}

SmpModel SmpEstimator::build_model(const TransitionCounts& counts) const {
  SmpModel model(kStateCount, counts.horizon());
  const double alpha = config_.laplace_alpha;

  for (const State from : {State::kS1, State::kS2}) {
    const std::size_t i = index_of(from);
    const double entries = static_cast<double>(counts.entries(from));
    // Feasible destinations: every other state (4 of them).
    const double denom = entries + 4.0 * alpha;
    if (denom <= 0.0) continue;  // no data: leave the row defective

    for (std::size_t k = 0; k < kStateCount; ++k) {
      if (k == i) continue;
      const State to = state_from_index(k);
      const double exits = static_cast<double>(counts.exits(from, to));
      const double q = (exits + alpha) / denom;
      if (q <= 0.0) continue;
      model.set_q(i, k, q);

      std::vector<double> pmf(counts.horizon(), 0.0);
      if (exits > 0.0) {
        for (std::size_t hold = 1; hold <= counts.horizon(); ++hold)
          pmf[hold - 1] =
              static_cast<double>(counts.count(from, to, hold)) / exits;
      } else {
        // Pure pseudo-count transition: uniform holding time.
        const double u = 1.0 / static_cast<double>(counts.horizon());
        std::fill(pmf.begin(), pmf.end(), u);
      }
      model.set_h_pmf(i, k, std::move(pmf));
    }
  }
  model.validate();
  return model;
}

SmpModel SmpEstimator::estimate(const MachineTrace& trace,
                                std::int64_t target_day,
                                const TimeWindow& window) const {
  const std::vector<std::int64_t> days =
      training_days_for(trace, target_day, window);
  return build_model(count_transitions(trace, days, window));
}

}  // namespace fgcs
