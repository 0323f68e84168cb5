#include "ishare/state_manager.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace fgcs {

StateManager::StateManager(const MachineTrace& history,
                           std::shared_ptr<PredictionService> service)
    : history_(history), service_(std::move(service)) {
  FGCS_REQUIRE(service_ != nullptr);
}

Prediction StateManager::predict(std::int64_t target_day,
                                 const TimeWindow& window) const {
  static Counter& predictions =
      MetricsRegistry::global().counter("state_manager.predictions.total");
  predictions.add();
  return service_->predict(history_, PredictionRequest{
                                         .target_day = target_day,
                                         .window = window,
                                         .initial_state = std::nullopt});
}

PredictionRequest StateManager::job_request(const MachineTrace& history,
                                            SimTime now, SimTime duration) {
  FGCS_REQUIRE(duration > 0);
  const SimTime period = history.sampling_period();
  // Round the window out to whole sampling ticks.
  const SimTime start = (Calendar::second_of_day(now) / period) * period;
  SimTime length = ((duration + period - 1) / period) * period;
  length = std::min<SimTime>(length, kSecondsPerDay);
  return PredictionRequest{
      .target_day = Calendar::day_index(now),
      .window = TimeWindow{.start_of_day = start, .length = length},
      .initial_state = std::nullopt};
}

Prediction StateManager::predict_for_job(SimTime now, SimTime duration) const {
  const PredictionRequest request = job_request(history_, now, duration);
  return predict(request.target_day, request.window);
}

}  // namespace fgcs
