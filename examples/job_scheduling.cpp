// Reliability-aware job scheduling across an ishare fleet (paper Fig. 2).
//
// A client submits compute jobs; the scheduler queries every published
// gateway for its temporal reliability over the job's expected window, runs
// the job on the best machine, and restarts it elsewhere after failures.
// The example contrasts the TR-driven choice with a naive fixed choice.
//
// Build & run:  ./job_scheduling
#include <cstdio>
#include <memory>
#include <vector>

#include "fgcs.hpp"

int main() {
  using namespace fgcs;

  // A small fleet with very different temperaments.
  WorkloadParams quiet;
  quiet.sampling_period = 60;
  quiet.session_rate_per_hour = 2.0;
  quiet.spike_rate_per_hour = 0.1;
  quiet.reboot_rate_per_day = 0.1;

  WorkloadParams busy = quiet;
  busy.session_rate_per_hour = 12.0;
  busy.spike_rate_per_hour = 2.5;
  busy.reboot_rate_per_day = 1.2;

  std::vector<MachineTrace> traces;
  traces.push_back(TraceGenerator(quiet, 11).generate("calm-0", 14));
  traces.push_back(TraceGenerator(busy, 12).generate("busy-0", 14));
  traces.push_back(TraceGenerator(busy, 13).generate("busy-1", 14));

  Thresholds thresholds;  // paper defaults
  const auto service = std::make_shared<PredictionService>();
  std::vector<Gateway> gateways;
  gateways.reserve(traces.size());
  for (const MachineTrace& trace : traces)
    gateways.emplace_back(trace, thresholds, service);

  Registry registry;
  for (Gateway& g : gateways) registry.publish(g);
  std::printf("published %zu machines\n", registry.size());

  const SimTime submit = 12 * kSecondsPerDay + 9 * kSecondsPerHour;
  const SimTime duration = 4 * kSecondsPerHour;

  std::printf("\nreliability quotes for a 4h window at d12 09:00:\n");
  for (Gateway* g : registry.gateways())
    std::printf("  %-8s TR = %.4f\n", g->machine_id().c_str(),
                g->query_reliability(submit, duration));

  const JobScheduler scheduler(registry, service);
  const GuestJobSpec job{.job_id = "render-frame-batch",
                         .cpu_seconds = 2.5 * 3600.0,
                         .mem_mb = 150};

  const JobOutcome outcome =
      scheduler.run_job(job, submit, submit + kSecondsPerDay);
  std::printf("\nTR-driven scheduling:\n");
  std::printf("  completed: %s after %d attempt(s), %d failure(s)\n",
              outcome.completed ? "yes" : "no", outcome.attempts,
              outcome.failures);
  std::printf("  response time: %.2f h\n",
              static_cast<double>(outcome.response_time()) / kSecondsPerHour);
  std::printf("  machines used:");
  for (const std::string& id : outcome.machines_used)
    std::printf(" %s", id.c_str());
  std::printf("\n");

  // Naive baseline: always run on the first published machine.
  Gateway* first = registry.gateways().front();
  const ExecutionResult naive =
      first->execute(job, submit, submit + kSecondsPerDay);
  std::printf("\nnaive choice (%s): %s\n", first->machine_id().c_str(),
              naive.completed ? "completed" : "failed/incomplete");
  if (naive.completed)
    std::printf("  response time: %.2f h\n",
                static_cast<double>(naive.end_time - submit) / kSecondsPerHour);
  else if (naive.failure)
    std::printf("  lost to %s after %.2f h\n", to_string(*naive.failure),
                static_cast<double>(naive.end_time - submit) / kSecondsPerHour);
  return 0;
}
