// Incrementally-maintained (Q, H) estimation over a sliding day window.
//
// SmpEstimator::estimate() re-classifies and re-counts every training day on
// every call — O(history). A streaming ingest path closes one day at a time,
// so almost all of that work repeats verbatim. IncrementalEstimator keeps
// the TransitionCounts for one (window, day-type) pair current by *adding*
// the newest eligible day's sojourns and *subtracting* the retired oldest
// day's — O(changed-day) per mutation. Because the counts are integers,
// addition and subtraction are exact, and build_model() over the maintained
// counts is bit-identical (every double) to a from-scratch estimate over
// the same training days. tests/core/incremental_estimator_test.cpp holds
// the class to that equality after every mutation of 1000+ fuzzed
// add/retire/append sequences — the PR's primary differential gate.
//
// Day identity is *absolute*: days are named by a monotonically increasing
// id (the TraceStore's day counter), decoupled from trace indices, which
// shift every time the sliding window retires a front day. Classified
// window states are cached per counted day so subtraction at retire time
// does not need the (possibly already retired) samples.
//
// Equivalence contract: after feeding every appended day through
// on_day_appended() (in order) and every retired day through
// on_day_retired() (front first), model() equals
//
//   SmpEstimator(config).estimate(trace, target, window)
//
// bit-for-bit, for any target day of the matching type placed just past the
// end of the trace — provided the trace still contains every day this
// estimator counts (retention at least the training-day budget).
//
// Not thread-safe; callers serialize mutations (the ingest path closes one
// day at a time per machine under the TraceStore's machine lock).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/classifier.hpp"
#include "core/estimator.hpp"
#include "core/semi_markov.hpp"
#include "core/states.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"
#include "util/time.hpp"

namespace fgcs {

class IncrementalEstimator {
 public:
  /// Pins the estimation parameters for this estimator's lifetime: the
  /// clock-time window, the day type it trains on, and the trace's sampling
  /// period (the counting horizon is window.steps(period), same as the
  /// from-scratch path).
  IncrementalEstimator(EstimatorConfig config, TimeWindow window,
                       DayType day_type, SimTime sampling_period);

  const TimeWindow& window() const { return window_; }
  DayType day_type() const { return day_type_; }
  SimTime sampling_period() const { return period_; }
  const EstimatorConfig& config() const { return estimator_.config(); }

  /// Notifies that `trace` just gained its last recorded day.
  /// `first_day_id` is the absolute id of trace day 0 (a store that has
  /// retired R front days passes R). At most one day becomes eligible per
  /// call — the appended day itself, or, for a midnight-wrapping window,
  /// the day before it (whose wrap data just completed) — and only if its
  /// type matches; the work is O(window steps), independent of history.
  void on_day_appended(const MachineTrace& trace, std::int64_t first_day_id);

  /// Notifies that absolute day `day_id` was retired from the front of the
  /// trace. Subtracts its cached sojourns if it is currently counted; a
  /// retire below the counted range (day never eligible, or already slid
  /// out of the training budget) is a no-op.
  void on_day_retired(std::int64_t day_id);

  /// Drops all state and re-counts from the trace — the O(history) resync
  /// used at adoption time (seeding from a pre-existing trace) and as the
  /// recovery path if a caller lost track of mutations.
  void rebuild(const MachineTrace& trace, std::int64_t first_day_id);

  /// The (possibly defective) SMP model over the currently counted days;
  /// bit-identical to the from-scratch estimate (see the header comment).
  SmpModel model() const { return estimator_.build_model(counts_); }

  /// Majority available state at the window start over the counted days
  /// (TransitionCounts::majority_initial_state of the maintained counts).
  State majority_initial_state() const {
    return counts_.majority_initial_state();
  }

  const TransitionCounts& counts() const { return counts_; }
  std::size_t counted_days() const { return days_.size(); }
  /// Absolute ids of the counted days, oldest first.
  std::vector<std::int64_t> counted_day_ids() const;

 private:
  struct CountedDay {
    std::int64_t day_id = 0;        ///< absolute id
    std::vector<State> states;      ///< cached classified window sequence
  };

  /// Classifies and counts trace day `index` (absolute id `day_id`) if it
  /// is window-eligible and of the right type; trims the front when the
  /// training budget overflows.
  void count_if_eligible(const MachineTrace& trace, std::int64_t index,
                         std::int64_t day_id);

  SmpEstimator estimator_;
  TimeWindow window_;
  DayType day_type_;
  SimTime period_;
  StateClassifier classifier_;
  TransitionCounts counts_;
  std::deque<CountedDay> days_;  ///< ascending by day_id
};

}  // namespace fgcs
