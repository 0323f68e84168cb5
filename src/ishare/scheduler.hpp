// Client-side job scheduler (paper Fig. 2 and §5.1).
//
// On submission the scheduler queries every published gateway for its
// temporal reliability over the job's expected execution window, runs the job
// on the most reliable machine, and — because FGCS failures are expected —
// restarts or resumes it (with whatever progress checkpointing preserved)
// after each failure, re-selecting the machine each time.
//
// The fleet probe is the hot path at scale: every placement queries every
// machine with the same window. The scheduler issues it as one
// try_predict_batch against the shared PredictionService, fanned out over
// the thread pool (probe_fleet below). On a warm cache each per-machine
// probe returns the entry's stored Prediction — no estimator scan, no solver
// construction, no Eq. 3 recursion — so repeat placements cost cache
// lookups, not solves.
//
// Degraded modes (exercised by tests/chaos): a machine whose prediction
// fails answers nullopt and is skipped during selection — never fatal, and
// never re-probed; a selection round that
// yields nothing (registry churn, estimator outage) is retried with backoff
// until the job's deadline; retries pause with capped exponential backoff
// plus seeded jitter when backoff_factor > 1 (fixed legacy delay otherwise).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "ishare/gateway.hpp"
#include "ishare/registry.hpp"
#include "util/rng.hpp"

namespace fgcs {

struct SchedulerConfig {
  int max_attempts = 50;
  /// Base pause between a failure and the resubmission (first retry).
  SimTime retry_delay = 60;
  /// Wall-time estimate per CPU-second of work, used for the TR query window
  /// (guests only get idle cycles, so wall time exceeds CPU time).
  double wall_time_factor = 1.6;
  /// Per-retry growth of the pause. 1 (the default) reproduces the legacy
  /// fixed-delay behaviour exactly — no growth, no jitter, no Rng draws;
  /// > 1 gives capped exponential backoff so repeated failures (revocation
  /// storms, registry churn) stop hammering the fleet with resubmissions.
  double backoff_factor = 1.0;
  /// Hard ceiling on the backed-off pause, jitter included (only consulted
  /// when backoff_factor > 1).
  SimTime max_retry_delay = 3600;
  /// Fraction of the pause randomized symmetrically around its nominal value
  /// (delay ∈ [d·(1−j), d·(1+j)]), drawn from a scheduler-seeded Rng so runs
  /// stay bit-reproducible. Ignored when backoff_factor == 1.
  double backoff_jitter = 0.1;
  /// Seed of the jitter stream (one independent stream per run_job call).
  std::uint64_t backoff_seed = 0x5c4ed01e;
};

/// The pause before the (retry + 1)-th resubmission of a job:
/// min(max_retry_delay, retry_delay · backoff_factor^retry), jittered by
/// ±backoff_jitter from `rng` and clamped to max_retry_delay again, so the
/// cap holds as a hard bound. With backoff_factor == 1 it returns
/// retry_delay exactly and never touches `rng` (legacy behaviour).
SimTime retry_backoff_delay(const SchedulerConfig& config, int retry,
                            Rng& rng);

struct JobOutcome {
  bool completed = false;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  int attempts = 0;
  int failures = 0;
  int checkpoints_taken = 0;
  std::vector<std::string> machines_used;

  SimTime response_time() const { return finish_time - submit_time; }
};

/// The fleet probe both schedulers issue: one try_predict_batch over
/// `gateways` for a job of `duration` wall seconds submitted at `now`. The
/// answers align with `gateways`; a machine whose estimation failed is
/// nullopt. An empty fleet issues no batch.
std::vector<std::optional<Prediction>> probe_fleet(
    PredictionService& service, std::span<Gateway* const> gateways,
    SimTime now, SimTime duration);

class JobScheduler {
 public:
  /// `service` answers the per-placement fleet probe and must not be null.
  JobScheduler(const Registry& registry,
               std::shared_ptr<PredictionService> service,
               SchedulerConfig config = {});

  /// The gateway with the highest TR for a job of `duration` wall seconds
  /// submitted at `now` (the lowest machine id on ties); nullptr when no
  /// published machine could be predicted.
  Gateway* select_machine(SimTime now, SimTime duration) const;

  /// Runs `job` to completion (or until `give_up_at` / attempts exhausted),
  /// restarting after failures per the checkpoint mode.
  JobOutcome run_job(const GuestJobSpec& job, SimTime submit_time,
                     SimTime give_up_at,
                     CheckpointMode mode = CheckpointMode::kNone,
                     const CheckpointConfig& checkpoint = {}) const;

 private:
  const Registry& registry_;
  std::shared_ptr<PredictionService> service_;
  SchedulerConfig config_;
};

}  // namespace fgcs
