// Replicated execution: run the same guest job on several machines and take
// the first completion.
//
// The paper's scheduler "decides on which machine(s) the job would be
// executed" (§5.1) — replication is the natural multi-machine policy and the
// classic response-time/throughput trade in volunteer computing: extra
// resource cost buys a shorter, more predictable completion time on flaky
// fleets. bench_ext_proactive's sibling experiment quantifies it.
//
// Two placement policies share one execution path:
//
//   * Fixed degree (the legacy contract): replicas go on the k highest-TR
//     machines at submission time, k capped at the published fleet size.
//   * Availability target (replication_planner.hpp): the planner picks the
//     cheapest set whose joint availability meets the configured A, falling
//     back to fixed degree — reported via ReplicatedOutcome::plan — when A
//     is infeasible on the current fleet.
//
// Either way each replica runs once with no restarts, and the outcome
// reports the first completion plus the total CPU spent across replicas —
// the cost side of the trade. The fleet probe goes through the shared
// PredictionService as ONE batched call (probe_fleet, like
// JobScheduler::select_machine); machines whose prediction fails are
// skipped, never fatal. The registry enumerates each machine once, so no
// host can receive two replicas. With k = 1 the fixed policy degenerates to
// a single no-retry placement.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ishare/registry.hpp"
#include "ishare/replication_planner.hpp"
#include "ishare/scheduler.hpp"

namespace fgcs {

struct ReplicatedOutcome {
  bool completed = false;
  SimTime submit_time = 0;
  SimTime finish_time = 0;       // first replica completion (or give-up)
  std::string winning_machine;   // empty if none completed
  int replicas_started = 0;
  int replicas_failed = 0;       // replicas lost to failure states
  /// CPU seconds consumed across all replicas until the first completion —
  /// the resource cost of the redundancy.
  double total_cpu_spent = 0.0;
  /// Present when the scheduler ran in availability-target mode: the plan
  /// the replicas were placed from, including the infeasible-A fallback
  /// verdict and the availability it actually bought.
  std::optional<ReplicationPlan> plan;

  SimTime response_time() const { return finish_time - submit_time; }
};

class ReplicatingScheduler {
 public:
  /// Fixed-degree policy: always the `replicas` highest-TR machines.
  /// `service` answers the per-job fleet probe and must not be null.
  ReplicatingScheduler(const Registry& registry,
                       std::shared_ptr<PredictionService> service,
                       int replicas, SchedulerConfig config = {});

  /// Availability-target policy: plan_replicas() against `planner` on every
  /// submission, using per-machine TR over the job's expected window.
  ReplicatingScheduler(const Registry& registry,
                       std::shared_ptr<PredictionService> service,
                       PlannerConfig planner, SchedulerConfig config = {});

  /// Starts the job on the chosen replica set at `submit_time` and reports
  /// the first completion. Each replica runs without restarts; redundancy
  /// replaces retry. Replicas launch in TR order (best first).
  ReplicatedOutcome run_job(const GuestJobSpec& job, SimTime submit_time,
                            SimTime give_up_at) const;

 private:
  /// Every predictable machine with its TR over the job window, sorted TR
  /// descending (machine id ascending on ties).
  std::vector<std::pair<double, Gateway*>> rank_fleet(SimTime submit_time,
                                                      SimTime expected_wall) const;

  const Registry& registry_;
  std::shared_ptr<PredictionService> service_;
  int replicas_;
  std::optional<PlannerConfig> planner_;
  SchedulerConfig config_;
};

}  // namespace fgcs
