#include "core/predictor.hpp"

#include "core/curve_cache.hpp"
#include "util/error.hpp"
#include "util/trace_span.hpp"

namespace fgcs {

void validate(const MachineTrace& trace, const PredictionRequest& request) {
  validate(request.window);
  FGCS_REQUIRE_MSG(request.target_day >= 0 &&
                       request.target_day <= trace.day_count(),
                   "target day beyond recorded history + 1");
}

const Prediction& AvailabilityPredictor::Answers::for_request(
    const PredictionRequest& request) const {
  const State init = request.initial_state.value_or(majority_initial);
  FGCS_REQUIRE_MSG(is_available(init), "initial state must be S1 or S2");
  return by_init[index_of(init)];
}

AvailabilityPredictor::AvailabilityPredictor(EstimatorConfig config)
    : estimator_(config) {}

Prediction AvailabilityPredictor::predict(const MachineTrace& trace,
                                          const PredictionRequest& request) const {
  validate(trace, request);
  const std::vector<std::int64_t> days =
      estimator_.training_days_for(trace, request.target_day, request.window);
  return answer(trace, days, request.window).for_request(request);
}

AvailabilityPredictor::Answers AvailabilityPredictor::answer(
    const MachineTrace& trace, std::span<const std::int64_t> days,
    const TimeWindow& window, Histogram* estimate_hist,
    Histogram* solve_hist) const {
  if (days.empty())
    throw DataError("no training day of the target's type holds the window");
  const std::size_t steps = window.steps(trace.sampling_period());

  Answers answers;
  TraceSpan estimate_span("service.estimate", estimate_hist);
  const SmpModel model = [&] {
    const TransitionCounts counts =
        estimator_.count_transitions(trace, days, window);
    answers.majority_initial = counts.majority_initial_state();
    return estimator_.build_model(counts);
  }();
  const double estimate_seconds = estimate_span.finish();

  TraceSpan solve_span("service.solve", solve_hist);
  const AbsorptionCurves curves(model, steps);  // the one validate()
  for (const State state : {State::kS1, State::kS2}) {
    const TrResult result = curves.result_at(state, steps);
    Prediction& prediction = answers.by_init[index_of(state)];
    prediction.temporal_reliability = result.temporal_reliability;
    prediction.initial_state = state;
    prediction.p_absorb = result.p_absorb;
    prediction.training_days_used = days.size();
    prediction.steps = steps;
  }
  const double solve_seconds = solve_span.finish();
  for (Prediction& prediction : answers.by_init) {
    prediction.estimate_seconds = estimate_seconds;
    prediction.solve_seconds = solve_seconds;
  }
  return answers;
}

}  // namespace fgcs
