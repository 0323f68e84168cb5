#include "ishare/replication.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace fgcs {

namespace {

/// Registry-owned counters for the planning layer (DESIGN.md §8 idiom).
struct ReplicationMetrics {
  Counter& plans_total;
  Counter& plans_infeasible;
  Counter& plans_unproven;

  static ReplicationMetrics& get() {
    static ReplicationMetrics metrics{
        MetricsRegistry::global().counter("replication.plans.total"),
        MetricsRegistry::global().counter(
            "replication.plans.infeasible.total"),
        MetricsRegistry::global().counter(
            "replication.plans.unproven.total")};
    return metrics;
  }
};

}  // namespace

ReplicatingScheduler::ReplicatingScheduler(
    const Registry& registry, std::shared_ptr<PredictionService> service,
    int replicas, SchedulerConfig config)
    : registry_(registry),
      service_(std::move(service)),
      replicas_(replicas),
      config_(config) {
  FGCS_REQUIRE(service_ != nullptr);
  FGCS_REQUIRE(replicas >= 1);
}

ReplicatingScheduler::ReplicatingScheduler(
    const Registry& registry, std::shared_ptr<PredictionService> service,
    PlannerConfig planner, SchedulerConfig config)
    : registry_(registry),
      service_(std::move(service)),
      replicas_(planner.fallback_replicas),
      planner_(planner),
      config_(config) {
  FGCS_REQUIRE(service_ != nullptr);
  // Surface malformed planner bounds at construction, not first submission.
  validate(planner);
}

std::vector<std::pair<double, Gateway*>> ReplicatingScheduler::rank_fleet(
    SimTime submit_time, SimTime expected_wall) const {
  const std::vector<Gateway*> gateways = registry_.gateways();
  const std::vector<std::optional<Prediction>> predictions =
      probe_fleet(*service_, gateways, submit_time, expected_wall);
  // A machine whose estimation failed is skipped for this placement.
  std::vector<std::pair<double, Gateway*>> ranked;
  ranked.reserve(gateways.size());
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i])
      ranked.emplace_back(predictions[i]->temporal_reliability, gateways[i]);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->machine_id() < b.second->machine_id();
  });
  return ranked;
}

ReplicatedOutcome ReplicatingScheduler::run_job(const GuestJobSpec& job,
                                                SimTime submit_time,
                                                SimTime give_up_at) const {
  FGCS_REQUIRE(job.cpu_seconds > 0);
  FGCS_REQUIRE(give_up_at > submit_time);

  ReplicatedOutcome outcome;
  outcome.submit_time = submit_time;
  outcome.finish_time = give_up_at;

  // Rank machines by TR over the expected execution window.
  const SimTime expected_wall = std::max<SimTime>(
      static_cast<SimTime>(job.cpu_seconds * config_.wall_time_factor),
      kSecondsPerMinute);
  const std::vector<std::pair<double, Gateway*>> ranked =
      rank_fleet(submit_time, expected_wall);

  // The replica set to launch, best TR first.
  std::vector<Gateway*> targets;
  if (planner_.has_value()) {
    std::vector<ReplicaCandidate> candidates;
    candidates.reserve(ranked.size());
    for (const auto& [tr, gateway] : ranked)
      candidates.push_back(ReplicaCandidate{gateway->machine_id(), tr, 1.0});
    ReplicationPlan plan = plan_replicas(std::move(candidates), *planner_);
    ReplicationMetrics::get().plans_total.add();
    if (!plan.feasible) ReplicationMetrics::get().plans_infeasible.add();
    if (!plan.optimal) ReplicationMetrics::get().plans_unproven.add();
    // Launch in TR order: plan.replicas is id-sorted (canonical), ranked is
    // TR-sorted — walk ranked and keep the planned ones.
    std::unordered_map<std::string, bool> planned;
    planned.reserve(plan.replicas.size());
    for (const ReplicaCandidate& replica : plan.replicas)
      planned.emplace(replica.machine_id, true);
    for (const auto& [tr, gateway] : ranked)
      if (planned.count(gateway->machine_id())) targets.push_back(gateway);
    outcome.plan = std::move(plan);
  } else {
    const std::size_t replica_count =
        std::min<std::size_t>(static_cast<std::size_t>(replicas_), ranked.size());
    for (std::size_t r = 0; r < replica_count; ++r)
      targets.push_back(ranked[r].second);
  }

  for (Gateway* gateway : targets) {
    // Chaos hook: the replica is lost before doing any work (host vanished
    // between placement and launch) — the no-progress worst case of churn.
    if (FGCS_FAILPOINT("replication.replica.lost")) {
      ++outcome.replicas_started;
      ++outcome.replicas_failed;
      continue;
    }
    const ExecutionResult result =
        gateway->execute(job, submit_time, give_up_at);
    ++outcome.replicas_started;
    if (result.failure) ++outcome.replicas_failed;
    // A replica that would finish after an earlier winner is cancelled then;
    // it only burns CPU until the winner's completion time.
    if (result.completed && result.end_time < outcome.finish_time) {
      outcome.completed = true;
      outcome.finish_time = result.end_time;
      outcome.winning_machine = gateway->machine_id();
    }
    outcome.total_cpu_spent += result.progress_seconds;
  }

  if (!outcome.completed) outcome.finish_time = give_up_at;
  return outcome;
}

}  // namespace fgcs
