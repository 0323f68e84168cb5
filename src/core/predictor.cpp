#include "core/predictor.hpp"

#include <chrono>

#include "util/error.hpp"

namespace fgcs {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

AvailabilityPredictor::AvailabilityPredictor(EstimatorConfig config)
    : estimator_(config) {}

Prediction AvailabilityPredictor::predict(const MachineTrace& trace,
                                          const PredictionRequest& request) const {
  validate(request.window);
  FGCS_REQUIRE_MSG(request.target_day >= 0 &&
                       request.target_day <= trace.day_count(),
                   "target day beyond recorded history + 1");

  Prediction prediction;
  prediction.steps = request.window.steps(trace.sampling_period());

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::int64_t> days =
      estimator_.training_days_for(trace, request.target_day, request.window);
  const TransitionCounts counts =
      estimator_.count_transitions(trace, days, request.window);
  const SmpModel model = estimator_.build_model(counts);
  prediction.training_days_used = days.size();
  prediction.initial_state =
      request.initial_state.value_or(counts.majority_initial_state());
  FGCS_REQUIRE_MSG(is_available(prediction.initial_state),
                   "initial state must be S1 or S2");
  prediction.estimate_seconds = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  static thread_local SolverScratch scratch;
  const SparseTrSolver solver(model);
  const SparseTrSolver::Result result =
      solver.solve(prediction.initial_state, prediction.steps, &scratch);
  prediction.solve_seconds = seconds_since(t1);

  prediction.temporal_reliability = result.temporal_reliability;
  prediction.p_absorb = result.p_absorb;
  return prediction;
}

}  // namespace fgcs
