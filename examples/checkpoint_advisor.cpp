// Proactive checkpointing driven by availability prediction.
//
// The paper motivates TR prediction with proactive job management (e.g.
// turning checkpointing on adaptively, refs [20][31]). This example runs the
// same long job under three policies on a flaky machine and prints the
// trade-off: restarts lose work, fixed checkpointing pays constant overhead,
// TR-adaptive checkpointing concentrates the overhead where the predictor
// sees risk.
//
// Build & run:  ./checkpoint_advisor
#include <cstdio>
#include <memory>

#include "fgcs.hpp"

int main() {
  using namespace fgcs;

  WorkloadParams flaky;
  flaky.sampling_period = 60;
  flaky.spike_rate_per_hour = 1.2;
  flaky.spike_transient_frac = 0.3;
  flaky.reboot_rate_per_day = 1.0;
  const MachineTrace trace = TraceGenerator(flaky, 21).generate("flaky-0", 21);

  Thresholds thresholds;
  const auto service = std::make_shared<PredictionService>();
  Gateway gateway(trace, thresholds, service);
  Registry registry;
  registry.publish(gateway);
  SchedulerConfig config;
  config.retry_delay = 300;
  const JobScheduler scheduler(registry, service, config);

  const GuestJobSpec job{.job_id = "monte-carlo-sim",
                         .cpu_seconds = 6.0 * 3600.0,
                         .mem_mb = 128};
  const SimTime submit = 15 * kSecondsPerDay + 8 * kSecondsPerHour;
  const SimTime give_up = submit + 5 * kSecondsPerDay;

  CheckpointConfig checkpoint;
  checkpoint.cost_seconds = 90;       // writing one checkpoint
  checkpoint.fixed_interval = 1800;   // fixed policy: every 30 min
  checkpoint.tr_low = 0.85;           // adaptive policy knobs
  checkpoint.short_interval = 300;
  checkpoint.long_interval = 5400;

  std::printf("job: %.1f CPU-hours on %s, submitted d15 08:00\n\n",
              job.cpu_seconds / 3600.0, trace.machine_id().c_str());

  struct Policy {
    const char* label;
    CheckpointMode mode;
  };
  for (const Policy policy : {Policy{"oblivious restart", CheckpointMode::kNone},
                              Policy{"fixed 30min", CheckpointMode::kFixed},
                              Policy{"TR-adaptive", CheckpointMode::kAdaptive}}) {
    const JobOutcome outcome =
        scheduler.run_job(job, submit, give_up, policy.mode, checkpoint);
    std::printf("%-18s completed=%s  response=%6.2f h  failures=%d  "
                "checkpoints=%d\n",
                policy.label, outcome.completed ? "yes" : "no ",
                static_cast<double>(outcome.response_time()) / kSecondsPerHour,
                outcome.failures, outcome.checkpoints_taken);
  }

  // Show the advisor's raw signal: predicted TR for the next hour, sampled
  // through the submission day.
  const StateManager manager(trace, service);
  std::printf("\npredicted TR for the next hour, through day 15:\n");
  for (SimTime hour = 6; hour <= 20; hour += 2) {
    const SimTime now = 15 * kSecondsPerDay + hour * kSecondsPerHour;
    const Prediction p = manager.predict_for_job(now, kSecondsPerHour);
    const char* advice = p.temporal_reliability < checkpoint.tr_low
                             ? "checkpoint every 5 min"
                             : "checkpoint every 90 min";
    std::printf("  %02lld:00  TR=%.4f  -> %s\n", static_cast<long long>(hour),
                p.temporal_reliability, advice);
  }
  return 0;
}
