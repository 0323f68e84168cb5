#include "ishare/gateway.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/trace_span.hpp"
#include "workload/replay.hpp"

namespace fgcs {

namespace {

/// Per-failure-state execution counters (DESIGN.md §8): which absorbing
/// state killed guests, fleet-wide. Registry-owned — gateways are one per
/// machine and their events are per-execution, far from any hot loop.
Counter& failure_counter(State state) {
  static Counter& s3 =
      MetricsRegistry::global().counter("gateway.failures.s3.total");
  static Counter& s4 =
      MetricsRegistry::global().counter("gateway.failures.s4.total");
  static Counter& s5 =
      MetricsRegistry::global().counter("gateway.failures.s5.total");
  switch (state) {
    case State::kS3: return s3;
    case State::kS4: return s4;
    default: return s5;
  }
}

}  // namespace

const char* to_string(CheckpointMode mode) {
  switch (mode) {
    case CheckpointMode::kNone: return "none";
    case CheckpointMode::kFixed: return "fixed";
    case CheckpointMode::kAdaptive: return "adaptive";
  }
  return "?";
}

Gateway::Gateway(const MachineTrace& trace, Thresholds thresholds,
                 std::shared_ptr<PredictionService> service)
    : trace_(trace),
      thresholds_(thresholds),
      state_manager_(trace, std::move(service)) {
  validate(thresholds_);
}

double Gateway::query_reliability(SimTime now, SimTime duration) const {
  return state_manager_.predict_for_job(now, duration).temporal_reliability;
}

ExecutionResult Gateway::execute(const GuestJobSpec& job, SimTime start,
                                 SimTime deadline, CheckpointMode mode,
                                 const CheckpointConfig& checkpoint) const {
  FGCS_REQUIRE(job.cpu_seconds > 0);
  FGCS_REQUIRE(deadline > start);
  FGCS_SPAN("gateway.execute");
  static Counter& executions =
      MetricsRegistry::global().counter("gateway.executions.total");
  executions.add();
  const SimTime period = trace_.sampling_period();
  const SimTime trace_end = trace_.day_count() * kSecondsPerDay;
  const SimTime bound = std::min(deadline, trace_end);

  SimulatedMachine machine(trace_.machine_id(), trace_.total_mem_mb(),
                           thresholds_, period,
                           std::make_unique<TraceReplaySignal>(trace_));
  // The machine model tracks raw progress; completion and checkpoint-cost
  // accounting happen here, so submit with an unreachable work amount.
  GuestJobSpec raw = job;
  raw.cpu_seconds = 1e18;
  machine.submit_guest(raw);

  ExecutionResult result;
  int checkpoints = 0;
  double saved = 0.0;

  auto current_interval = [&](SimTime now) -> SimTime {
    if (mode == CheckpointMode::kFixed) return checkpoint.fixed_interval;
    double tr;
    try {
      tr = state_manager_.predict_for_job(now, checkpoint.probe_window)
               .temporal_reliability;
    } catch (const DataError&) {
      // Degraded mode: with the prediction path down, checkpoint as if the
      // machine looked unreliable rather than aborting the guest.
      return checkpoint.short_interval;
    }
    return tr < checkpoint.tr_low ? checkpoint.short_interval
                                  : checkpoint.long_interval;
  };

  SimTime first_tick = ((start / period) + 1) * period;
  SimTime next_checkpoint =
      mode == CheckpointMode::kNone
          ? std::numeric_limits<SimTime>::max()
          : first_tick + current_interval(start);

  for (SimTime now = first_tick; now <= bound; now += period) {
    machine.step(now);
    result.end_time = now;

    // Chaos hooks: a fired revocation loses the guest to S5 (owner reboot /
    // machine loss), a fired contention spike kills it as S3 — exactly the
    // paper's URR and UEC failure sources, but on demand.
    if (FGCS_FAILPOINT("gateway.execute.revoke")) {
      result.failure = State::kS5;
      break;
    }
    if (FGCS_FAILPOINT("gateway.execute.contention")) {
      result.failure = State::kS3;
      break;
    }
    if (machine.guest_status() == GuestStatus::kKilled) {
      result.failure = machine.guest_failure();
      break;
    }
    const double effective = machine.guest_progress_seconds() -
                             checkpoints * checkpoint.cost_seconds;
    result.progress_seconds = std::max(0.0, effective);
    if (effective >= job.cpu_seconds) {
      result.completed = true;
      result.progress_seconds = job.cpu_seconds;
      break;
    }
    if (now >= next_checkpoint && machine.guest_active()) {
      // Capture the state first, then pay the checkpoint's CPU cost.
      saved = std::max(saved, std::max(0.0, effective));
      ++checkpoints;
      next_checkpoint = now + current_interval(now);
    }
  }

  if (result.failure) failure_counter(*result.failure).add();
  result.saved_progress_seconds = result.completed ? job.cpu_seconds : saved;
  result.checkpoints_taken = checkpoints;
  if (result.end_time == 0) result.end_time = first_tick;
  return result;
}

}  // namespace fgcs
