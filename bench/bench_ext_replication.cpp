// Extension A6 — replicated execution on the FGCS fleet.
//
// The paper's client scheduler picks "the machine(s)" for a job (§5.1);
// running k replicas and taking the first completion is the classic
// redundancy policy for volunteer computing. This bench sweeps the
// replication factor and reports the response-time / CPU-cost trade,
// alongside the single-machine restart policy for context.
#include <iostream>
#include <memory>

#include "harness.hpp"

using namespace fgcs;

int main() {
  WorkloadParams params;
  params.sampling_period = bench::kPeriod;
  params.spike_rate_per_hour = 0.8;
  params.spike_transient_frac = 0.4;
  params.reboot_rate_per_day = 0.8;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, bench::kFleetSeed + 17, 6, 30, "rep");

  const auto service = std::make_shared<PredictionService>(
      ServiceConfig{.estimator = bench::bench_estimator_config()});
  std::vector<Gateway> gateways;
  gateways.reserve(fleet.size());
  Thresholds thresholds;
  for (const MachineTrace& trace : fleet)
    gateways.emplace_back(trace, thresholds, service);
  Registry registry;
  for (Gateway& g : gateways) registry.publish(g);

  print_banner(std::cout,
               "A6 — replication factor vs response time (3-CPU-hour jobs)");
  Table table({"policy", "completed", "mean_response_hr", "mean_cpu_cost_hr",
               "replica_failures"});

  const GuestJobSpec job{.job_id = "job", .cpu_seconds = 3.0 * 3600.0,
                         .mem_mb = 100};

  // Baseline: single machine with restarts (the paper's §5.1 policy).
  {
    SchedulerConfig config;
    config.retry_delay = 300;
    const JobScheduler scheduler(registry, service, config);
    RunningStats response;
    int completed = 0, total = 0;
    for (int day = 22; day < 27; ++day) {
      for (const SimTime start_hr : {9, 14}) {
        const SimTime submit = day * kSecondsPerDay + start_hr * kSecondsPerHour;
        const JobOutcome outcome =
            scheduler.run_job(job, submit, submit + 2 * kSecondsPerDay);
        ++total;
        if (outcome.completed) {
          ++completed;
          response.add(static_cast<double>(outcome.response_time()) /
                       kSecondsPerHour);
        }
      }
    }
    table.add_row({"restart (k=1)",
                   std::to_string(completed) + "/" + std::to_string(total),
                   response.empty() ? "n/a" : Table::num(response.mean(), 2),
                   Table::num(job.cpu_seconds / 3600.0, 2), "-"});
  }

  for (const int replicas : {1, 2, 3, 4}) {
    const ReplicatingScheduler scheduler(registry, service, replicas);
    RunningStats response, cpu_cost, failures;
    int completed = 0, total = 0;
    for (int day = 22; day < 27; ++day) {
      for (const SimTime start_hr : {9, 14}) {
        const SimTime submit = day * kSecondsPerDay + start_hr * kSecondsPerHour;
        const ReplicatedOutcome outcome =
            scheduler.run_job(job, submit, submit + 2 * kSecondsPerDay);
        ++total;
        if (outcome.completed) {
          ++completed;
          response.add(static_cast<double>(outcome.response_time()) /
                       kSecondsPerHour);
          cpu_cost.add(outcome.total_cpu_spent / 3600.0);
          failures.add(outcome.replicas_failed);
        }
      }
    }
    table.add_row({"replicate k=" + std::to_string(replicas),
                   std::to_string(completed) + "/" + std::to_string(total),
                   response.empty() ? "n/a" : Table::num(response.mean(), 2),
                   cpu_cost.empty() ? "n/a" : Table::num(cpu_cost.mean(), 2),
                   failures.empty() ? "n/a" : Table::num(failures.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "(replication buys completion probability and latency with "
               "redundant CPU; the TR ranking decides *which* machines host "
               "the replicas)\n";
  return 0;
}
