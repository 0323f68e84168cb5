// Discrete-event simulation of a live ishare deployment (paper Fig. 2):
// per-machine resource monitors tick every minute, clients submit jobs at
// random times through the day, and the TR-driven scheduler places each one.
//
// This drives the same daemons the paper describes — gateway, resource
// monitor, state manager — on one EventQueue clock, and prints a day's
// activity log plus end-of-day statistics.
//
// All TR queries — the scheduler's batched fleet probes and the gateways'
// adaptive-checkpoint probes — go through one shared PredictionService, so
// the end-of-day report can show how much of the day's prediction traffic
// was served from the memoized (Q, H) cache.
//
// Build & run:  ./fleet_simulation
#include <cstdio>
#include <memory>
#include <vector>

#include "fgcs.hpp"

int main() {
  using namespace fgcs;

  constexpr SimTime kPeriod = 60;
  constexpr int kHistoryDays = 14;
  constexpr int kMachines = 3;

  // Fleet: two weeks of history per machine; today (day 14) is simulated.
  WorkloadParams params;
  params.sampling_period = kPeriod;
  const std::vector<MachineTrace> traces =
      generate_fleet(params, 2006, kMachines, kHistoryDays + 1, "node");

  Thresholds thresholds;
  const auto service = std::make_shared<PredictionService>();
  std::vector<std::unique_ptr<SimulatedMachine>> machines;
  std::vector<std::unique_ptr<ResourceMonitor>> monitors;
  std::vector<Gateway> gateways;
  Registry registry;
  for (const MachineTrace& trace : traces) {
    machines.push_back(make_replay_machine(trace, thresholds));
    monitors.push_back(std::make_unique<ResourceMonitor>(*machines.back()));
    gateways.emplace_back(trace, thresholds, service);
  }
  for (Gateway& g : gateways) registry.publish(g);
  const JobScheduler scheduler(registry, service);

  EventQueue clock;
  const SimTime day_start = kHistoryDays * kSecondsPerDay;
  const SimTime day_end = day_start + kSecondsPerDay;

  // Monitors tick once per sampling period, all day.
  std::function<void()> monitor_tick = [&] {
    for (auto& monitor : monitors) monitor->on_tick(clock.now());
    if (clock.now() + kPeriod <= day_end)
      clock.schedule_in(kPeriod, monitor_tick);
  };
  clock.schedule_at(day_start + kPeriod, monitor_tick);

  // Poisson-ish job arrivals, denser during working hours.
  struct JobRecord {
    SimTime submitted;
    JobOutcome outcome;
  };
  std::vector<JobRecord> records;
  Rng rng(7);
  SimTime next_arrival = day_start + 7 * kSecondsPerHour;
  while (next_arrival < day_start + 20 * kSecondsPerHour) {
    const SimTime at = next_arrival;
    clock.schedule_at(at, [&, at] {
      const GuestJobSpec job{
          .job_id = "job" + std::to_string(records.size()),
          .cpu_seconds = rng.uniform(0.5, 2.5) * 3600.0,
          .mem_mb = static_cast<int>(rng.uniform_int(64, 160))};
      Gateway* chosen = scheduler.select_machine(
          at, static_cast<SimTime>(job.cpu_seconds * 1.6));
      const JobOutcome outcome =
          scheduler.run_job(job, at, day_end + kSecondsPerDay);
      std::printf("[%s] %-6s %.1f CPU-h -> %-7s %s in %.2f h (%d attempt%s)\n",
                  format_sim_time(at).c_str(), job.job_id.c_str(),
                  job.cpu_seconds / 3600.0,
                  chosen ? chosen->machine_id().c_str() : "none",
                  outcome.completed ? "done" : "gave up",
                  static_cast<double>(outcome.response_time()) / kSecondsPerHour,
                  outcome.attempts, outcome.attempts == 1 ? "" : "s");
      records.push_back({at, outcome});
    });
    next_arrival += static_cast<SimTime>(rng.exponential(90.0 * 60.0));
  }

  clock.run_until(day_end);

  // End-of-day report.
  std::size_t completed = 0;
  double total_response_h = 0.0;
  int failures = 0;
  for (const JobRecord& record : records) {
    if (record.outcome.completed) {
      ++completed;
      total_response_h +=
          static_cast<double>(record.outcome.response_time()) / kSecondsPerHour;
    }
    failures += record.outcome.failures;
  }
  std::printf("\n=== day %d summary ===\n", kHistoryDays);
  std::printf("jobs submitted : %zu\n", records.size());
  std::printf("jobs completed : %zu\n", completed);
  std::printf("guest failures : %d (restarted transparently)\n", failures);
  if (completed > 0)
    std::printf("mean response  : %.2f h\n",
                total_response_h / static_cast<double>(completed));
  for (std::size_t m = 0; m < monitors.size(); ++m)
    std::printf("monitor %s: %zu samples, overhead %.2f%% CPU\n",
                traces[m].machine_id().c_str(), monitors[m]->samples_taken(),
                100.0 * monitors[m]->overhead_fraction());

  const ServiceStats stats = service->stats();
  const double hit_rate =
      stats.lookups == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.hits) /
                static_cast<double>(stats.lookups);
  std::printf(
      "prediction svc : %llu queries (%llu batches, max %llu), "
      "%.1f%% cache hits, %.1f ms estimating + %.1f ms solving\n",
      static_cast<unsigned long long>(stats.lookups),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.max_batch), hit_rate,
      1e3 * stats.estimate_seconds, 1e3 * stats.solve_seconds);
  std::printf(
      "thread pool    : %u worker%s (%s), %llu tasks, "
      "queue high-water %llu, %.1f%% busy\n",
      stats.pool.workers, stats.pool.workers == 1 ? "" : "s",
      stats.pool.started ? "started" : "never started",
      static_cast<unsigned long long>(stats.pool.tasks_executed),
      static_cast<unsigned long long>(stats.pool.queue_depth_high_water),
      100.0 * stats.pool.utilization());

  // The same numbers (plus scheduler/gateway series) as a scrape-ready
  // Prometheus exposition — what tools/fgcs_metrics prints. Rendered while
  // the service is alive so its attached instruments fold into the totals.
  std::printf("\n=== metrics exposition (DESIGN.md §8) ===\n%s",
              MetricsRegistry::global().render_text().c_str());
  return 0;
}
