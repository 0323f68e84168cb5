// Extension A5 — TR-driven proactive job management (the paper's motivating
// use case, refs [20][31], and its §8 integration plan).
//
// Compares the response time of compute jobs on the FGCS fleet under three
// policies:
//   * oblivious   — restart from scratch after every failure,
//   * fixed       — checkpoint on a fixed interval,
//   * adaptive    — checkpoint interval chosen from the predicted TR
//                   (frequent when the machine looks risky, rare when not).
#include <iostream>
#include <memory>

#include "harness.hpp"

using namespace fgcs;

int main() {
  // A flakier lab than the default so failures actually bite.
  WorkloadParams params;
  params.sampling_period = bench::kPeriod;
  params.spike_rate_per_hour = 1.0;
  params.spike_transient_frac = 0.3;
  params.reboot_rate_per_day = 1.0;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, bench::kFleetSeed + 9, 4, 30, "flaky");

  const auto service = std::make_shared<PredictionService>(
      ServiceConfig{.estimator = bench::bench_estimator_config()});
  std::vector<Gateway> gateways;
  gateways.reserve(fleet.size());
  Thresholds thresholds;
  for (const MachineTrace& trace : fleet)
    gateways.emplace_back(trace, thresholds, service);
  Registry registry;
  for (Gateway& g : gateways) registry.publish(g);

  SchedulerConfig sched_config;
  sched_config.retry_delay = 300;
  const JobScheduler scheduler(registry, service, sched_config);

  CheckpointConfig checkpoint;
  checkpoint.cost_seconds = 60;
  checkpoint.fixed_interval = 1800;

  struct Policy {
    const char* name;
    CheckpointMode mode;
  };
  const Policy policies[] = {{"oblivious (restart)", CheckpointMode::kNone},
                             {"fixed 30min ckpt", CheckpointMode::kFixed},
                             {"TR-adaptive ckpt", CheckpointMode::kAdaptive}};

  print_banner(std::cout,
               "A5 — job response time by management policy (4-CPU-hour jobs)");
  Table table({"policy", "completed", "mean_response_hr", "mean_failures",
               "mean_checkpoints"});

  for (const Policy& policy : policies) {
    RunningStats response_hr, failures, checkpoints;
    int completed = 0, total = 0;
    // Ten submissions across the last week, morning starts.
    for (int day = 22; day < 27; ++day) {
      for (const SimTime start_hr : {9, 14}) {
        const GuestJobSpec job{.job_id = "job",
                               .cpu_seconds = 4.0 * 3600.0,
                               .mem_mb = 120};
        const SimTime submit =
            day * kSecondsPerDay + start_hr * kSecondsPerHour;
        const JobOutcome outcome =
            scheduler.run_job(job, submit, submit + 3 * kSecondsPerDay,
                              policy.mode, checkpoint);
        ++total;
        if (outcome.completed) {
          ++completed;
          response_hr.add(static_cast<double>(outcome.response_time()) /
                          kSecondsPerHour);
          failures.add(outcome.failures);
          checkpoints.add(outcome.checkpoints_taken);
        }
      }
    }
    table.add_row({policy.name,
                   std::to_string(completed) + "/" + std::to_string(total),
                   response_hr.empty() ? "n/a" : Table::num(response_hr.mean(), 2),
                   failures.empty() ? "n/a" : Table::num(failures.mean(), 1),
                   checkpoints.empty() ? "n/a"
                                       : Table::num(checkpoints.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "(proactive, TR-aware management should beat oblivious "
               "restart on response time — the paper's [20][31] motivation)\n";
  return 0;
}
