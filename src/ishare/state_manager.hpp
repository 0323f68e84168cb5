// State manager daemon (paper Fig. 2): stores the history log and answers
// temporal-reliability queries on the job-submission critical path.
//
// The manager is the bridge between the monitoring side (a MachineTrace the
// resource monitor appends to, one day at a time) and the prediction side
// (AvailabilityPredictor, or a fleet-shared PredictionService). It owns no
// data: the history is a non-owning view, so one trace can back a gateway,
// its monitor, and the evaluation harness simultaneously.
//
// When constructed with a PredictionService, every query routes through the
// service's memoizing cache — the intended configuration for fleet
// deployments, where many managers share one service and the scheduler's
// per-placement probes hit cached answers: a warm query is a copy of the
// stored Prediction, never a fresh estimate or Eq. 3 solve. Whoever appends
// days to the
// history must call PredictionService::invalidate(machine_id) afterwards
// (see prediction_service.hpp for the staleness contract). Without a
// service, queries run a private AvailabilityPredictor per call — the
// paper's original single-machine behaviour.
#pragma once

#include <cstdint>
#include <memory>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"

namespace fgcs {

class StateManager {
 public:
  /// Non-owning view of the machine's history log; the log must outlive the
  /// manager and may grow (new days appended by the resource monitor). When
  /// `service` is non-null it answers all queries (its EstimatorConfig wins
  /// over `config`; pass the same one to keep results identical).
  StateManager(const MachineTrace& history, EstimatorConfig config = {},
               std::shared_ptr<PredictionService> service = nullptr);

  const MachineTrace& history() const { return history_; }

  /// The shared prediction service, or nullptr in stand-alone mode.
  const std::shared_ptr<PredictionService>& service() const { return service_; }

  /// TR for a window starting on `target_day` (paper Eq. 2/3).
  Prediction predict(std::int64_t target_day, const TimeWindow& window) const;

  /// TR for a job of `duration` seconds submitted at absolute time `now`
  /// (window = [now, now + duration), rounded out to sampling ticks).
  Prediction predict_for_job(SimTime now, SimTime duration) const;

  /// The PredictionRequest predict_for_job(now, duration) would issue against
  /// `history`: window rounded out to sampling ticks, capped at 24 h.
  /// Exposed so batch callers (JobScheduler) can build identical requests.
  static PredictionRequest job_request(const MachineTrace& history,
                                       SimTime now, SimTime duration);

 private:
  const MachineTrace& history_;
  AvailabilityPredictor predictor_;
  std::shared_ptr<PredictionService> service_;
};

}  // namespace fgcs
