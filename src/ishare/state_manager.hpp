// State manager daemon (paper Fig. 2): stores the history log and answers
// temporal-reliability queries on the job-submission critical path.
//
// The manager is the bridge between the monitoring side (a MachineTrace the
// resource monitor appends to, one day at a time) and the prediction side
// (the fleet-shared PredictionService). It owns no data: the history is a
// non-owning view, so one trace can back a gateway, its monitor, and the
// evaluation harness simultaneously.
//
// Every query routes through the service's memoizing cache, and the
// service's EstimatorConfig is the one the answers are estimated with. Many
// managers share one service, so the scheduler's per-placement probes hit
// cached answers: a warm query is a copy of the stored Prediction, never a
// fresh estimate or Eq. 3 solve, and every answer is bit-identical to the
// paper's per-call predictor with the same config. Whoever appends days to
// the history must call PredictionService::invalidate(machine_id)
// afterwards (see prediction_service.hpp for the staleness contract).
#pragma once

#include <cstdint>
#include <memory>

#include "core/prediction_service.hpp"
#include "trace/machine_trace.hpp"
#include "trace/window.hpp"

namespace fgcs {

class StateManager {
 public:
  /// Non-owning view of the machine's history log; the log must outlive the
  /// manager and may grow (new days appended by the resource monitor).
  /// `service` answers every query and must not be null.
  StateManager(const MachineTrace& history,
               std::shared_ptr<PredictionService> service);

  const MachineTrace& history() const { return history_; }

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
  std::shared_ptr<PredictionService> service_;
};

}  // namespace fgcs
