#include "ishare/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ishare/state_manager.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace_span.hpp"

namespace fgcs {

namespace {

/// Scheduler instruments (DESIGN.md §8), resolved once from the global
/// registry. Scheduler events are per-placement, not per-sample, so the
/// registry-owned (shared across scheduler instances) form is the simple
/// right choice here.
struct SchedulerMetrics {
  Counter& selection_rounds;
  Counter& selection_empty;
  Counter& retries;
  Histogram& backoff_seconds;

  static SchedulerMetrics& get() {
    static SchedulerMetrics metrics{
        MetricsRegistry::global().counter("scheduler.selection.rounds.total"),
        MetricsRegistry::global().counter("scheduler.selection.empty.total"),
        MetricsRegistry::global().counter("scheduler.retries.total"),
        // Sim-time delays, not wall latencies: bucket by the plausible
        // retry-delay range (seconds to an hour) instead of µs decades.
        MetricsRegistry::global().histogram(
            "scheduler.backoff.seconds",
            {1.0, 10.0, 60.0, 300.0, 900.0, 3600.0})};
    return metrics;
  }
};

}  // namespace

JobScheduler::JobScheduler(const Registry& registry,
                           std::shared_ptr<PredictionService> service,
                           SchedulerConfig config)
    : registry_(registry), service_(std::move(service)), config_(config) {
  FGCS_REQUIRE(service_ != nullptr);
  FGCS_REQUIRE(config.max_attempts >= 1);
  FGCS_REQUIRE(config.retry_delay >= 0);
  FGCS_REQUIRE(config.wall_time_factor >= 1.0);
  FGCS_REQUIRE(config.backoff_factor >= 1.0);
  FGCS_REQUIRE(config.max_retry_delay >= 0);
  FGCS_REQUIRE(config.backoff_jitter >= 0.0 && config.backoff_jitter < 1.0);
}

SimTime retry_backoff_delay(const SchedulerConfig& config, int retry,
                            Rng& rng) {
  FGCS_REQUIRE(retry >= 0);
  if (config.backoff_factor == 1.0) {
    SchedulerMetrics::get().backoff_seconds.observe(
        static_cast<double>(config.retry_delay));
    return config.retry_delay;
  }
  double delay = static_cast<double>(config.retry_delay) *
                 std::pow(config.backoff_factor, retry);
  delay = std::min(delay, static_cast<double>(config.max_retry_delay));
  if (config.backoff_jitter > 0.0) {
    delay *= 1.0 + config.backoff_jitter * rng.uniform(-1.0, 1.0);
    // Re-clamp: jitter is applied to the capped delay, so an upward draw
    // would otherwise exceed max_retry_delay — the cap is a hard bound.
    delay = std::min(delay, static_cast<double>(config.max_retry_delay));
  }
  const SimTime result = static_cast<SimTime>(std::llround(delay));
  SchedulerMetrics::get().backoff_seconds.observe(static_cast<double>(result));
  return result;
}

std::vector<std::optional<Prediction>> probe_fleet(
    PredictionService& service, std::span<Gateway* const> gateways,
    SimTime now, SimTime duration) {
  if (gateways.empty()) return {};
  std::vector<BatchRequest> batch;
  batch.reserve(gateways.size());
  for (const Gateway* gateway : gateways) {
    const MachineTrace& history = gateway->state_manager().history();
    batch.push_back(BatchRequest{
        .trace = &history,
        .request = StateManager::job_request(history, now, duration)});
  }
  return service.try_predict_batch(batch);
}

Gateway* JobScheduler::select_machine(SimTime now, SimTime duration) const {
  FGCS_SPAN("scheduler.select");
  SchedulerMetrics& metrics = SchedulerMetrics::get();
  metrics.selection_rounds.add();
  const std::vector<Gateway*> gateways = registry_.gateways();
  const std::vector<std::optional<Prediction>> predictions =
      probe_fleet(*service_, gateways, now, duration);
  // Strictly greater wins, so ties resolve to the first (lowest machine id);
  // a machine that could not be predicted is skipped.
  Gateway* best = nullptr;
  double best_tr = -1.0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] && predictions[i]->temporal_reliability > best_tr) {
      best_tr = predictions[i]->temporal_reliability;
      best = gateways[i];
    }
  }
  if (best == nullptr) metrics.selection_empty.add();
  return best;
}

JobOutcome JobScheduler::run_job(const GuestJobSpec& job, SimTime submit_time,
                                 SimTime give_up_at, CheckpointMode mode,
                                 const CheckpointConfig& checkpoint) const {
  FGCS_REQUIRE(job.cpu_seconds > 0);
  FGCS_REQUIRE(give_up_at > submit_time);

  JobOutcome outcome;
  outcome.submit_time = submit_time;
  outcome.finish_time = give_up_at;

  double remaining = job.cpu_seconds;
  SimTime now = submit_time;
  Rng backoff_rng(config_.backoff_seed);
  int select_misses = 0;

  while (outcome.attempts < config_.max_attempts && now < give_up_at) {
    const SimTime expected_wall = std::max<SimTime>(
        static_cast<SimTime>(remaining * config_.wall_time_factor),
        kSecondsPerMinute);
    Gateway* gateway = select_machine(now, expected_wall);
    if (gateway == nullptr) {
      // Nothing selectable right now (empty fleet, churned registry, or every
      // prediction failing). Back off — harder for each consecutive miss —
      // and retry until the deadline rather than giving up on a transient
      // outage; a registry that was empty at submission stays a hard
      // no-placement, matching legacy behaviour.
      if (outcome.attempts == 0 && registry_.size() == 0) break;
      SchedulerMetrics::get().retries.add();
      now += std::max<SimTime>(
          1, retry_backoff_delay(config_, select_misses++, backoff_rng));
      continue;
    }
    select_misses = 0;

    ++outcome.attempts;
    outcome.machines_used.push_back(gateway->machine_id());

    GuestJobSpec attempt = job;
    attempt.cpu_seconds = remaining;
    const ExecutionResult result =
        gateway->execute(attempt, now, give_up_at, mode, checkpoint);
    outcome.checkpoints_taken += result.checkpoints_taken;

    if (result.completed) {
      outcome.completed = true;
      outcome.finish_time = result.end_time;
      return outcome;
    }
    if (result.failure) ++outcome.failures;
    // Resume from the last checkpoint (0 preserved without checkpointing);
    // the pause before resubmission backs off with the failure count.
    remaining = std::max(1.0, remaining - result.saved_progress_seconds);
    SchedulerMetrics::get().retries.add();
    now = result.end_time +
          retry_backoff_delay(config_, outcome.attempts - 1, backoff_rng);
  }

  outcome.finish_time = std::min(now, give_up_at);
  return outcome;
}

}  // namespace fgcs
