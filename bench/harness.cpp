#include "harness.hpp"

namespace fgcs::bench {

std::vector<MachineTrace> lab_fleet(int machines, int days, SimTime period,
                                    double drift_per_day, std::uint64_t seed) {
  WorkloadParams params;
  params.sampling_period = period;
  params.drift_per_day = drift_per_day;
  return generate_fleet(params, seed, machines, days, "lab");
}

std::vector<std::int64_t> test_days_of_type(const MachineTrace& trace,
                                            double training_fraction,
                                            DayType type) {
  const auto split = static_cast<std::int64_t>(
      training_fraction * static_cast<double>(trace.day_count()));
  return trace.days_of_type(type, split, trace.day_count());
}

std::optional<std::int64_t> first_test_day(const MachineTrace& trace,
                                           double training_fraction,
                                           DayType type) {
  const std::vector<std::int64_t> days =
      test_days_of_type(trace, training_fraction, type);
  if (days.empty()) return std::nullopt;
  return days.front();
}

EstimatorConfig bench_estimator_config() {
  EstimatorConfig config;
  config.training_days = 15;  // most recent N same-type days
  return config;
}

std::optional<WindowEvaluation> evaluate_smp_window(
    const MachineTrace& trace, double training_fraction, DayType type,
    const TimeWindow& window, const EstimatorConfig& config) {
  const auto target = first_test_day(trace, training_fraction, type);
  if (!target) return std::nullopt;
  const std::vector<std::int64_t> days =
      test_days_of_type(trace, training_fraction, type);

  const AvailabilityPredictor predictor(config);
  Prediction prediction;
  try {
    prediction = predictor.predict(trace, {.target_day = *target, .window = window});
  } catch (const PreconditionError&) {
    return std::nullopt;  // e.g. wrapping window past the trace end
  } catch (const DataError&) {
    return std::nullopt;  // no training day of the target's type holds it
  }

  const StateClassifier classifier(config.thresholds, trace.sampling_period());
  const EmpiricalTr emp = empirical_tr(trace, days, window, classifier);
  if (!emp.tr || *emp.tr <= 0.0) return std::nullopt;

  WindowEvaluation eval;
  eval.predicted_tr = prediction.temporal_reliability;
  eval.empirical_tr = *emp.tr;
  eval.error = relative_error(eval.predicted_tr, eval.empirical_tr);
  return eval;
}

std::optional<WindowEvaluation> evaluate_ts_window(
    const MachineTrace& trace, double training_fraction, DayType type,
    const TimeWindow& window, TimeSeriesModel& model,
    const Thresholds& thresholds) {
  const std::vector<std::int64_t> days =
      test_days_of_type(trace, training_fraction, type);
  if (days.empty()) return std::nullopt;

  const StateClassifier classifier(thresholds, trace.sampling_period());
  const TsTrResult ts = predict_tr_time_series(trace, days, window, model, classifier);
  const EmpiricalTr emp = empirical_tr(trace, days, window, classifier);
  if (!ts.tr || !emp.tr || *emp.tr <= 0.0) return std::nullopt;

  WindowEvaluation eval;
  eval.predicted_tr = *ts.tr;
  eval.empirical_tr = *emp.tr;
  eval.error = relative_error(eval.predicted_tr, eval.empirical_tr);
  return eval;
}

}  // namespace fgcs::bench
