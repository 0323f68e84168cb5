// Public prediction API: temporal reliability of a machine over a future
// time window, per the paper's SMP method.
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

#include "core/estimator.hpp"
#include "core/sparse_solver.hpp"
#include "core/states.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"

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

class AvailabilityPredictor {
 public:
  explicit AvailabilityPredictor(EstimatorConfig config = {});

  const SmpEstimator& estimator() const { return estimator_; }

  /// Predicts TR for the request. The window must lie within [0, 24h] of the
  /// target day (midnight wrap handled); the target day may equal
  /// trace.day_count() (i.e. "tomorrow" relative to the recorded history).
  Prediction predict(const MachineTrace& trace,
                     const PredictionRequest& request) const;

 private:
  SmpEstimator estimator_;
};

}  // namespace fgcs
