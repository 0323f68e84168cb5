// Q/H estimation from history logs (paper §4.2).
//
// For a prediction window W on a target day, the statistics come from the
// state sequences inside the *same clock-time window* on the most recent N
// days of the same type (weekday/weekend) — the paper's key observation is
// that daily host-load patterns repeat across recent same-type days.
//
// Sojourn counting with right-censoring: a sojourn still in progress when the
// window ends contributes to the exit-opportunity denominator but to no
// transition, so Σ_k Q_i(k) ≤ 1 and the missing mass means "survived past the
// horizon" — which the absorption solvers interpret exactly as survival.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/classifier.hpp"
#include "core/semi_markov.hpp"
#include "core/states.hpp"
#include "core/thresholds.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"

namespace fgcs {

struct EstimatorConfig {
  /// Number of most recent same-type days used for statistics (paper's N).
  /// 0 means "all available history".
  std::size_t training_days = 10;
  /// Laplace pseudo-count added to every feasible transition; 0 (default)
  /// reproduces the paper's plain empirical statistics. Ablation A3.
  double laplace_alpha = 0.0;
  Thresholds thresholds{};
};

/// Sojourn statistics for the two transient states. The `from` dimension is
/// {S1, S2}; destinations cover all five states (self-destination unused).
class TransitionCounts {
 public:
  explicit TransitionCounts(std::size_t horizon);

  std::size_t horizon() const { return horizon_; }

  /// Scans one classified window and adds its sojourns.
  void accumulate(std::span<const State> states);

  /// Completed sojourns in `from` of exactly `hold` ticks ending in `to`.
  std::uint32_t count(State from, State to, std::size_t hold) const;

  /// Completed sojourns from → to of any length.
  std::uint32_t exits(State from, State to) const;

  /// Sojourns in `from` cut short by the window end.
  std::uint32_t censored(State from) const;

  /// All sojourns that started in `from` (completed + censored).
  std::uint32_t entries(State from) const;

  /// Most frequent available state at the window start across the counted
  /// windows (S1 when there is no data or a tie; empty windows count for
  /// neither). Used as the default S_init.
  State majority_initial_state() const;

 private:
  std::size_t slot(std::size_t from, std::size_t to, std::size_t hold) const {
    return (from * kStateCount + to) * horizon_ + (hold - 1);
  }

  std::size_t horizon_;
  std::vector<std::uint32_t> counts_;          // 2·5·horizon
  std::array<std::uint32_t, 2> censored_{};    // per transient state
  std::array<std::uint32_t, 2> initial_{};     // windows starting in S1/S2
};

class SmpEstimator {
 public:
  explicit SmpEstimator(EstimatorConfig config = {});

  const EstimatorConfig& config() const { return config_; }

  /// The training days the paper's rule selects for (target_day, window):
  /// most recent N days of target_day's type, strictly before it, whose
  /// window data is recorded.
  std::vector<std::int64_t> training_days_for(const MachineTrace& trace,
                                              std::int64_t target_day,
                                              const TimeWindow& window) const;

  /// Out-param variant for hot paths: fills `out` (cleared first, capacity
  /// reused) with the same days the returning overload produces. Lets a
  /// per-worker buffer absorb the allocation across thousands of probes.
  void training_days_for(const MachineTrace& trace, std::int64_t target_day,
                         const TimeWindow& window,
                         std::vector<std::int64_t>& out) const;

  /// Counts sojourn statistics over explicit training days, classifying each
  /// day's window once (the counts also carry the majority initial state).
  TransitionCounts count_transitions(const MachineTrace& trace,
                                     std::span<const std::int64_t> days,
                                     const TimeWindow& window) const;

  /// Normalizes counts into a (possibly defective) SMP model.
  SmpModel build_model(const TransitionCounts& counts) const;

  /// One-call estimation for (target_day, window) per the paper's rule.
  SmpModel estimate(const MachineTrace& trace, std::int64_t target_day,
                    const TimeWindow& window) const;

 private:
  EstimatorConfig config_;
};

}  // namespace fgcs
