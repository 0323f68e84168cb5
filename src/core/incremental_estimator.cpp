#include "core/incremental_estimator.hpp"

#include <utility>

#include "util/error.hpp"

namespace fgcs {

IncrementalEstimator::IncrementalEstimator(EstimatorConfig config,
                                           TimeWindow window, DayType day_type,
                                           SimTime sampling_period)
    : estimator_(config),
      window_(window),
      day_type_(day_type),
      period_(sampling_period),
      classifier_(config.thresholds, sampling_period),
      counts_(window.steps(sampling_period)) {
  validate(window_);
}

void IncrementalEstimator::count_if_eligible(const MachineTrace& trace,
                                             std::int64_t index,
                                             std::int64_t day_id) {
  if (index < 0 || index >= trace.day_count()) return;
  if (trace.day_type(index) != day_type_) return;
  if (!trace.window_in_range(index, window_)) return;
  FGCS_REQUIRE_MSG(days_.empty() || day_id > days_.back().day_id,
                   "days must be appended in ascending order");
  CountedDay day{.day_id = day_id,
                 .states = classifier_.classify_window(trace, index, window_)};
  counts_.accumulate(day.states);
  days_.push_back(std::move(day));
  // Sliding training budget: from-scratch selection keeps the most recent N
  // eligible days, so once an (N+1)-th lands the oldest falls out of every
  // future estimate and its sojourns come straight back out of the counts.
  const std::size_t budget = estimator_.config().training_days;
  while (budget > 0 && days_.size() > budget) {
    counts_.remove(days_.front().states);
    days_.pop_front();
  }
}

void IncrementalEstimator::on_day_appended(const MachineTrace& trace,
                                           std::int64_t first_day_id) {
  FGCS_REQUIRE(trace.sampling_period() == period_);
  FGCS_REQUIRE(trace.day_count() >= 1);
  const std::int64_t newest = trace.day_count() - 1;
  // A midnight-wrapping window needs the *next* day recorded, so appending
  // day d completes day d-1's window, not day d's own.
  const std::int64_t eligible = window_.wraps_midnight() ? newest - 1 : newest;
  count_if_eligible(trace, eligible, first_day_id + eligible);
}

void IncrementalEstimator::on_day_retired(std::int64_t day_id) {
  // Only the counted front can retire: the trace drops days oldest-first,
  // and anything below the front either was never eligible or already slid
  // out of the training budget — both no-ops for the maintained counts.
  if (days_.empty() || days_.front().day_id != day_id) return;
  counts_.remove(days_.front().states);
  days_.pop_front();
}

void IncrementalEstimator::rebuild(const MachineTrace& trace,
                                   std::int64_t first_day_id) {
  FGCS_REQUIRE(trace.sampling_period() == period_);
  counts_ = TransitionCounts(window_.steps(period_));
  days_.clear();
  for (std::int64_t index = 0; index < trace.day_count(); ++index)
    count_if_eligible(trace, index, first_day_id + index);
}

std::vector<std::int64_t> IncrementalEstimator::counted_day_ids() const {
  std::vector<std::int64_t> ids;
  ids.reserve(days_.size());
  for (const CountedDay& day : days_) ids.push_back(day.day_id);
  return ids;
}

}  // namespace fgcs
