// Availability-target replica planning (Trua-style).
//
// Fixed-degree replication wastes replicas: k = 3 on a fleet of TR ≈ 0.99
// machines buys nothing the first replica didn't, while k = 3 on TR ≈ 0.5
// machines may still miss the user's availability needs. Trua (Zhang et
// al.) inverts the contract: the user states a target availability A, and
// the planner picks the CHEAPEST replica set whose joint availability
//
//     1 − Π_i (1 − TR_i)        (replica failures assumed independent)
//
// meets A. Per-machine TR comes from the paper's SMP predictor, batched
// through the shared PredictionService by ReplicatingScheduler.
//
// Optimality contract (pinned by brute-force differentials over every
// subset in tests/ishare/replication_planner_test.cpp): among subsets of
// size 1..max_replicas of the whole candidate list, plan_replicas returns
// the best under the total order
//
//     total cost ASC  →  joint availability DESC  →  size ASC
//                     →  machine-id list (lexicographic) ASC
//
// restricted to feasible subsets (joint availability ≥ A). The search is a
// greedy-by-TR certificate (top-m prefixes, m = 1..max_replicas — the
// availability-maximal set of each size, so it decides feasibility) seeding
// one depth-first branch and bound over every candidate, which prunes on
// cost and on the best reachable availability against that incumbent. The
// search visits at most a fixed node budget; a plan whose search ran out of
// budget is still the best set found (never worse than the certificate) and
// says so with `optimal = false`. When no subset meets A the planner falls
// back to fixed-degree (the `fallback_replicas` highest-TR machines) and
// says so: `feasible = false, fallback = true`, with the achieved
// availability reported — degraded mode is visible, never silent.
//
// Float determinism: joint availability and total cost are always
// accumulated over the set sorted by machine id (the canonical order), so
// the planner, the brute force, and any replayed run agree bit-for-bit.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace fgcs {

/// One machine the planner may place a replica on. `cost` is in arbitrary
/// units (e.g. TransientVmClass::hourly_cost); the scheduler uses 1.0 per
/// machine, making cost == replica count.
struct ReplicaCandidate {
  std::string machine_id;
  double tr = 0.0;    ///< temporal reliability over the job window, in [0, 1]
  double cost = 1.0;  ///< price of placing a replica here, >= 0
};

struct PlannerConfig {
  /// Target joint availability A in [0, 1]. A = 0 degenerates to the
  /// cheapest single replica; A = 1 needs a TR = 1 machine.
  double target_availability = 0.95;
  /// Hard cap on replicas per job (>= 1).
  int max_replicas = 8;
  /// Fixed degree used when A is infeasible (>= 1, capped at fleet size).
  int fallback_replicas = 3;
};

/// Throws PreconditionError unless A lies in [0, 1] and both replica counts
/// are >= 1.
void validate(const PlannerConfig& config);

struct ReplicationPlan {
  bool feasible = false;  ///< some subset met the target
  bool fallback = false;  ///< infeasible: replicas below are the fixed-degree fallback
  double target_availability = 0.0;
  /// Joint availability of `replicas` (canonical-order product) — for a
  /// fallback plan this is the best the fallback set achieves, < target.
  double achieved_availability = 0.0;
  double total_cost = 0.0;  ///< canonical-order sum over `replicas`
  /// The search finished, so `replicas` is the best set under the plan
  /// order (or no set meets the target). False when the node budget ran out
  /// first: the plan is the best found, never worse than the certificate.
  bool optimal = true;
  /// The chosen set, sorted by machine id (the canonical order).
  std::vector<ReplicaCandidate> replicas;
};

/// Joint availability 1 − Π(1 − TR_i), accumulated in the given order.
/// Callers wanting the canonical value pass an id-sorted span.
double joint_availability(std::span<const ReplicaCandidate> replicas);

/// Plans the cheapest replica set meeting `config.target_availability`.
/// Throws PreconditionError on malformed input (TR outside [0, 1], negative
/// or non-finite cost, a config validate() rejects). Empty candidate list
/// yields an infeasible plan with no replicas.
ReplicationPlan plan_replicas(std::vector<ReplicaCandidate> candidates,
                              const PlannerConfig& config);

}  // namespace fgcs
