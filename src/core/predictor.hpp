// Public prediction API: temporal reliability of a machine over a future
// time window, per the paper's SMP method.
//
// Every answer in the library comes from AvailabilityPredictor::answer:
// estimate (Q, H) from the training days, then one AbsorptionCurves build at
// the window's horizon gives both transient initial states' Predictions.
// predict() returns the requested one; PredictionService caches both. The
// paper's plain recursion (SparseTrSolver) is kept only as the bit
// reference this path is checked against.
//
// Typical use:
//
//   fgcs::AvailabilityPredictor predictor;          // default config
//   fgcs::PredictionRequest request{
//       .target_day = today,
//       .window = {.start_of_day = 9 * fgcs::kSecondsPerHour,
//                  .length = 2 * fgcs::kSecondsPerHour}};
//   fgcs::Prediction p = predictor.predict(trace, request);
//   // p.temporal_reliability in [0,1]
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "core/estimator.hpp"
#include "core/states.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"
#include "util/metrics.hpp"

namespace fgcs {

struct PredictionRequest {
  /// Day index the window starts on; training data comes from earlier days.
  std::int64_t target_day = 0;
  TimeWindow window{};
  /// Observed state at submission time. Defaults to the majority initial
  /// state across the training days.
  std::optional<State> initial_state;
};

struct Prediction {
  double temporal_reliability = 1.0;
  State initial_state = State::kS1;
  /// Absorption probabilities into S3 (CPU), S4 (memory), S5 (revocation).
  std::array<double, 3> p_absorb{0.0, 0.0, 0.0};
  std::size_t training_days_used = 0;
  std::size_t steps = 0;
  /// Wall-clock cost split, for the Fig. 4 overhead experiment.
  double estimate_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Throws PreconditionError unless the request's window is valid and its
/// target day lies in [0, trace.day_count()].
void validate(const MachineTrace& trace, const PredictionRequest& request);

class AvailabilityPredictor {
 public:
  explicit AvailabilityPredictor(EstimatorConfig config = {});

  const SmpEstimator& estimator() const { return estimator_; }

  /// Everything one estimate answers for a (trace, training days, window).
  struct Answers {
    /// Majority initial state across the training days.
    State majority_initial = State::kS1;
    std::array<Prediction, 2> by_init;  // by index_of(init)

    /// The Prediction for the request's initial state (the majority when it
    /// names none); throws PreconditionError for a failure state.
    const Prediction& for_request(const PredictionRequest& request) const;
  };

  /// Predicts TR for the request. The window must lie within [0, 24h] of the
  /// target day (midnight wrap handled); the target day may equal
  /// trace.day_count() (i.e. "tomorrow" relative to the recorded history).
  /// Throws DataError when the paper's rule selects no training day.
  Prediction predict(const MachineTrace& trace,
                     const PredictionRequest& request) const;

  /// The one Eq. 3 path, behind predict() and PredictionService's cache
  /// miss: count_transitions → build_model over `days`, then one
  /// AbsorptionCurves build at the window's horizon read for both initial
  /// states. The two phases are timed as the `service.estimate` and
  /// `service.solve` spans (observed into the histograms when non-null),
  /// and every Prediction carries both timings. Throws DataError when
  /// `days` is empty: a machine with no history has no estimate, and
  /// TR = 1 from empty rows would rank it as perfectly available.
  Answers answer(const MachineTrace& trace, std::span<const std::int64_t> days,
                 const TimeWindow& window, Histogram* estimate_hist = nullptr,
                 Histogram* solve_hist = nullptr) const;

 private:
  SmpEstimator estimator_;
};

}  // namespace fgcs
