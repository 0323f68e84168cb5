// Brute-force differentials for the availability-target planner: on fleets
// small enough to enumerate (n <= 12, 4096 subsets), plan_replicas must
// match an independent exhaustive search over ALL subsets — same
// feasibility verdict, bit-identical cost and achieved availability, and
// (the tie-break being total) the exact same machine set — across 500+
// seeded random cases plus the degenerate corners. Wider fleets (17–22 VMs,
// where a cheap low-TR machine outside the 16 highest TRs often belongs to
// the optimum) are checked against every combination of at most
// max_replicas machines.
//
// Both sides accumulate cost and joint availability over the id-sorted set
// (the planner's documented canonical order), so double equality here is
// exact, not tolerance-based. Test costs are multiples of 0.25, whose sums
// are exact in binary floating point — a cost tie in the generator is a
// real tie, forcing the deeper tie-break rungs to be exercised.
#include "ishare/replication_planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fgcs {
namespace {

struct BruteResult {
  bool feasible = false;
  double cost = 0.0;
  double availability = 0.0;
  std::vector<std::string> ids;
};

/// Whether a feasible set beats `best` under (cost ASC, availability DESC,
/// size ASC, id-list lex ASC).
bool beats(const BruteResult& best, double cost, double availability,
           const std::vector<std::string>& ids) {
  if (!best.feasible) return true;
  if (cost != best.cost) return cost < best.cost;
  if (availability != best.availability)
    return availability > best.availability;
  if (ids.size() != best.ids.size()) return ids.size() < best.ids.size();
  return std::lexicographical_compare(ids.begin(), ids.end(),
                                      best.ids.begin(), best.ids.end());
}

std::vector<ReplicaCandidate> sorted_by_id(
    std::vector<ReplicaCandidate> fleet) {
  std::sort(fleet.begin(), fleet.end(),
            [](const ReplicaCandidate& a, const ReplicaCandidate& b) {
              return a.machine_id < b.machine_id;
            });
  return fleet;
}

/// The planner's ranking: TR descending, machine id ascending on ties.
std::vector<ReplicaCandidate> ranked_by_tr(
    std::vector<ReplicaCandidate> fleet) {
  std::sort(fleet.begin(), fleet.end(),
            [](const ReplicaCandidate& a, const ReplicaCandidate& b) {
              if (a.tr != b.tr) return a.tr > b.tr;
              return a.machine_id < b.machine_id;
            });
  return fleet;
}

/// All 2^n - 1 nonempty subsets of size <= max_replicas, best under the
/// plan order among those meeting the target. Metrics accumulate in id
/// order.
BruteResult brute_force(std::vector<ReplicaCandidate> fleet,
                        const PlannerConfig& config) {
  fleet = sorted_by_id(std::move(fleet));
  const std::size_t n = fleet.size();
  BruteResult best;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const int bits = __builtin_popcount(mask);
    if (bits > config.max_replicas) continue;
    double cost = 0.0;
    double miss = 1.0;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) continue;
      cost += fleet[i].cost;
      miss *= 1.0 - fleet[i].tr;
      ids.push_back(fleet[i].machine_id);
    }
    const double availability = 1.0 - miss;
    if (availability < config.target_availability) continue;
    if (beats(best, cost, availability, ids))
      best = {true, cost, availability, std::move(ids)};
  }
  return best;
}

/// Every combination of at most max_replicas machines, enumerated in id
/// order with cost and miss product accumulated along the way (the
/// canonical order): the brute force for fleets too wide for 2^n masks.
struct CombinationBruteForce {
  std::vector<ReplicaCandidate> fleet;
  PlannerConfig config;
  BruteResult best;
  std::vector<std::string> ids;

  void extend(std::size_t from, double cost, double miss) {
    for (std::size_t i = from; i < fleet.size(); ++i) {
      const double set_cost = cost + fleet[i].cost;
      const double set_miss = miss * (1.0 - fleet[i].tr);
      ids.push_back(fleet[i].machine_id);
      const double availability = 1.0 - set_miss;
      if (availability >= config.target_availability &&
          beats(best, set_cost, availability, ids))
        best = {true, set_cost, availability, ids};
      if (ids.size() < static_cast<std::size_t>(config.max_replicas))
        extend(i + 1, set_cost, set_miss);
      ids.pop_back();
    }
  }
};

BruteResult brute_force_combinations(std::vector<ReplicaCandidate> fleet,
                                     const PlannerConfig& config) {
  CombinationBruteForce search{sorted_by_id(std::move(fleet)), config, {}, {}};
  search.extend(0, 0.0, 1.0);
  return search.best;
}

/// The best set among the TR-ranked prefixes of size 1..max_replicas — the
/// planner's first incumbent — or infeasible when no prefix meets A.
BruteResult certificate(std::vector<ReplicaCandidate> fleet,
                        const PlannerConfig& config) {
  fleet = ranked_by_tr(std::move(fleet));
  BruteResult best;
  const std::size_t max_take = std::min<std::size_t>(
      static_cast<std::size_t>(config.max_replicas), fleet.size());
  for (std::size_t m = 1; m <= max_take; ++m) {
    const std::vector<ReplicaCandidate> prefix = sorted_by_id(
        {fleet.begin(), fleet.begin() + static_cast<std::ptrdiff_t>(m)});
    double cost = 0.0;
    std::vector<std::string> ids;
    for (const ReplicaCandidate& replica : prefix) {
      cost += replica.cost;
      ids.push_back(replica.machine_id);
    }
    const double availability = joint_availability(prefix);
    if (availability >= config.target_availability &&
        beats(best, cost, availability, ids))
      best = {true, cost, availability, std::move(ids)};
  }
  return best;
}

std::vector<std::string> plan_ids(const ReplicationPlan& plan) {
  std::vector<std::string> ids;
  ids.reserve(plan.replicas.size());
  for (const ReplicaCandidate& replica : plan.replicas)
    ids.push_back(replica.machine_id);
  return ids;
}

TEST(ReplicationPlannerDifferential, MatchesBruteForceOn520SeededFleets) {
  int cases = 0;
  int feasible_cases = 0;
  int fallback_cases = 0;
  for (std::uint64_t seed = 0; seed < 520; ++seed) {
    Rng rng(0x9a11'0000u + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<ReplicaCandidate> fleet;
    for (std::size_t i = 0; i < n; ++i) {
      ReplicaCandidate candidate;
      candidate.machine_id = (i < 10 ? "m0" : "m") + std::to_string(i);
      const std::int64_t kind = rng.uniform_int(0, 9);
      candidate.tr = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.uniform();
      candidate.cost = 0.25 * static_cast<double>(rng.uniform_int(1, 16));
      fleet.push_back(candidate);
    }
    // Feed the planner a shuffled order: input order must not matter.
    for (std::size_t i = n; i > 1; --i)
      std::swap(fleet[i - 1], fleet[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

    PlannerConfig config;
    const std::int64_t target_kind = rng.uniform_int(0, 9);
    config.target_availability = target_kind <= 1   ? 0.0
                                 : target_kind == 2 ? 1.0
                                                    : rng.uniform(0.5, 0.9999);
    config.max_replicas = static_cast<int>(
        rng.uniform_int(1, static_cast<std::int64_t>(n) + 2));
    config.fallback_replicas = static_cast<int>(rng.uniform_int(1, 3));

    const BruteResult want = brute_force(fleet, config);
    const ReplicationPlan plan = plan_replicas(fleet, config);
    ++cases;

    ASSERT_EQ(plan.feasible, want.feasible)
        << "seed " << seed << " target " << config.target_availability;
    if (want.feasible) {
      ++feasible_cases;
      EXPECT_FALSE(plan.fallback);
      EXPECT_EQ(plan.total_cost, want.cost) << "seed " << seed;
      EXPECT_EQ(plan.achieved_availability, want.availability)
          << "seed " << seed;
      EXPECT_EQ(plan_ids(plan), want.ids) << "seed " << seed;
      EXPECT_GE(plan.achieved_availability, config.target_availability);
    } else {
      ++fallback_cases;
      EXPECT_TRUE(plan.fallback);
      // (No bound on achieved here: when fallback_replicas > max_replicas
      // the wider fallback set may legitimately exceed the target that was
      // infeasible within the cap.)
      // The fallback is the fixed-degree set: top fallback_replicas by
      // (TR desc, id asc), reported id-sorted.
      std::vector<ReplicaCandidate> ranked = fleet;
      std::sort(ranked.begin(), ranked.end(),
                [](const ReplicaCandidate& a, const ReplicaCandidate& b) {
                  if (a.tr != b.tr) return a.tr > b.tr;
                  return a.machine_id < b.machine_id;
                });
      ranked.resize(std::min<std::size_t>(
          static_cast<std::size_t>(config.fallback_replicas), n));
      std::vector<std::string> want_fallback;
      for (const ReplicaCandidate& replica : ranked)
        want_fallback.push_back(replica.machine_id);
      std::sort(want_fallback.begin(), want_fallback.end());
      EXPECT_EQ(plan_ids(plan), want_fallback) << "seed " << seed;
    }
  }
  EXPECT_GE(cases, 500);
  // The mix must actually exercise both verdicts.
  EXPECT_GT(feasible_cases, 100);
  EXPECT_GT(fallback_cases, 20);
}

TEST(ReplicationPlannerDifferential, MatchesBruteForceOnSeededFleetsOf17To22) {
  // Expensive machines are the reliable ones, so the 16 highest TRs skew
  // expensive and the optimum often mixes in a cheap machine ranked below
  // them — the sets a search confined to the top 16 could never return.
  int feasible_cases = 0;
  int beyond_top16 = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(0x9a11'1722u + seed);
    const std::size_t n = 17 + seed % 6;
    std::vector<ReplicaCandidate> fleet;
    for (std::size_t i = 0; i < n; ++i) {
      ReplicaCandidate candidate;
      candidate.machine_id = (i < 10 ? "v0" : "v") + std::to_string(i);
      candidate.cost = 0.25 * static_cast<double>(rng.uniform_int(1, 16));
      candidate.tr =
          std::min(0.99, rng.uniform(0.05, 0.5) + 0.12 * candidate.cost);
      fleet.push_back(candidate);
    }
    for (std::size_t i = n; i > 1; --i)
      std::swap(fleet[i - 1], fleet[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

    PlannerConfig config;
    config.target_availability = rng.uniform(0.9, 0.9999);
    config.max_replicas = static_cast<int>(rng.uniform_int(2, 5));
    config.fallback_replicas = static_cast<int>(rng.uniform_int(1, 3));

    const BruteResult want = brute_force_combinations(fleet, config);
    const ReplicationPlan plan = plan_replicas(fleet, config);
    EXPECT_TRUE(plan.optimal) << "seed " << seed;
    ASSERT_EQ(plan.feasible, want.feasible) << "seed " << seed;
    if (!want.feasible) continue;
    ++feasible_cases;
    EXPECT_EQ(plan.total_cost, want.cost) << "seed " << seed;
    EXPECT_EQ(plan.achieved_availability, want.availability)
        << "seed " << seed;
    EXPECT_EQ(plan_ids(plan), want.ids) << "seed " << seed;

    const std::vector<ReplicaCandidate> ranked = ranked_by_tr(fleet);
    std::set<std::string> top16;
    for (std::size_t i = 0; i < 16; ++i) top16.insert(ranked[i].machine_id);
    beyond_top16 += std::any_of(want.ids.begin(), want.ids.end(),
                                [&](const std::string& id) {
                                  return top16.count(id) == 0;
                                });
  }
  EXPECT_GT(feasible_cases, 40);
  // The widened differential must actually reach past the old pool.
  EXPECT_GT(beyond_top16, 10);
}

TEST(ReplicationPlannerTest, CheapLowTrMachineOutsideTheTop16JoinsTheOptimum) {
  // Sixteen reliable machines at cost 1 and one cheap, flaky one ranked
  // 17th by TR. Two reliable machines alone miss A = 0.95 (joint miss
  // >= 1/16); three meet it at cost 3; two plus the cheap one meet it at
  // cost 2.25 (joint miss ~1/32).
  std::vector<ReplicaCandidate> fleet;
  for (int i = 0; i < 16; ++i)
    fleet.push_back({(i < 10 ? "p0" : "p") + std::to_string(i),
                     0.75 - static_cast<double>(i) / 1024.0, 1.0});
  fleet.push_back({"q", 0.5, 0.25});
  PlannerConfig config;
  config.target_availability = 0.95;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.optimal);
  EXPECT_EQ(plan_ids(plan), (std::vector<std::string>{"p00", "p01", "q"}));
  EXPECT_EQ(plan.total_cost, 2.25);
  EXPECT_EQ(certificate(fleet, config).cost, 3.0);
  const BruteResult want = brute_force_combinations(fleet, config);
  EXPECT_EQ(plan_ids(plan), want.ids);
  EXPECT_EQ(plan.achieved_availability, want.availability);
}

TEST(ReplicationPlannerTest, InfeasibleTargetFallsBackAndReports) {
  const std::vector<ReplicaCandidate> fleet = {
      {"a", 0.6, 1.0}, {"b", 0.5, 1.0}, {"c", 0.4, 1.0}};
  PlannerConfig config;
  config.target_availability = 0.999;
  config.max_replicas = 2;
  config.fallback_replicas = 2;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.fallback);
  ASSERT_EQ(plan.replicas.size(), 2u);  // the two highest-TR machines
  EXPECT_EQ(plan.replicas[0].machine_id, "a");
  EXPECT_EQ(plan.replicas[1].machine_id, "b");
  // Reported, not silent: the shortfall is visible.
  EXPECT_LT(plan.achieved_availability, config.target_availability);
  EXPECT_EQ(plan.achieved_availability, 1.0 - 0.4 * 0.5);
}

TEST(ReplicationPlannerTest, TargetZeroPicksCheapestSingleReplica) {
  const std::vector<ReplicaCandidate> fleet = {
      {"pricey", 0.99, 4.0}, {"cheap", 0.2, 0.5}, {"mid", 0.7, 1.0}};
  PlannerConfig config;
  config.target_availability = 0.0;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_TRUE(plan.feasible);
  ASSERT_EQ(plan.replicas.size(), 1u);
  EXPECT_EQ(plan.replicas[0].machine_id, "cheap");
  EXPECT_EQ(plan.total_cost, 0.5);
}

TEST(ReplicationPlannerTest, SingleMachineFleetFeasibleIffTrMeetsTarget) {
  PlannerConfig config;
  config.target_availability = 0.9;
  config.fallback_replicas = 3;

  const ReplicationPlan good =
      plan_replicas({{"solo", 0.95, 1.0}}, config);
  EXPECT_TRUE(good.feasible);
  ASSERT_EQ(good.replicas.size(), 1u);
  EXPECT_EQ(good.replicas[0].machine_id, "solo");

  const ReplicationPlan bad = plan_replicas({{"solo", 0.5, 1.0}}, config);
  EXPECT_FALSE(bad.feasible);
  EXPECT_TRUE(bad.fallback);
  ASSERT_EQ(bad.replicas.size(), 1u);  // fallback capped at the fleet size
  EXPECT_EQ(bad.achieved_availability, 0.5);
}

TEST(ReplicationPlannerTest, TrZeroMachineIsNeverWorthIncluding) {
  // The dead machine is free, but adds nothing: availability ties, so the
  // size tie-break must exclude it.
  const std::vector<ReplicaCandidate> fleet = {{"live", 0.9, 1.0},
                                               {"dead", 0.0, 0.0}};
  PlannerConfig config;
  config.target_availability = 0.5;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_TRUE(plan.feasible);
  ASSERT_EQ(plan.replicas.size(), 1u);
  EXPECT_EQ(plan.replicas[0].machine_id, "live");
}

TEST(ReplicationPlannerTest, TargetOneRequiresAPerfectMachine) {
  PlannerConfig config;
  config.target_availability = 1.0;

  // No TR=1 machine: infeasible no matter how many replicas. (TRs are kept
  // moderate so the joint miss probability stays representable — at
  // TR ≈ 1−1e−6 the double product would round to exactly 1.0, which is
  // feasible by the arithmetic both planner and brute force share.)
  const ReplicationPlan miss = plan_replicas(
      {{"a", 0.9, 1.0}, {"b", 0.9, 1.0}, {"c", 0.9, 1.0}}, config);
  EXPECT_FALSE(miss.feasible);

  // A TR=1 machine satisfies it alone — and the cheapest such one wins.
  const ReplicationPlan hit = plan_replicas(
      {{"gold", 1.0, 3.0}, {"iron", 1.0, 1.0}, {"flaky", 0.4, 0.25}}, config);
  EXPECT_TRUE(hit.feasible);
  ASSERT_EQ(hit.replicas.size(), 1u);
  EXPECT_EQ(hit.replicas[0].machine_id, "iron");
  EXPECT_EQ(hit.achieved_availability, 1.0);
}

TEST(ReplicationPlannerTest, EmptyFleetYieldsEmptyInfeasiblePlan) {
  const ReplicationPlan plan = plan_replicas({}, PlannerConfig{});
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.fallback);
  EXPECT_TRUE(plan.replicas.empty());
  EXPECT_EQ(plan.total_cost, 0.0);
}

TEST(ReplicationPlannerTest, FeasibilityDecidedByTheWholeFleetSearch) {
  // 18 identical-but-weak machines: no set of 5 meets the target, and the
  // search over the whole fleet must still find a size-6 set that does.
  std::vector<ReplicaCandidate> fleet;
  for (int i = 0; i < 18; ++i)
    fleet.push_back({(i < 10 ? "h0" : "h") + std::to_string(i), 0.5, 1.0});
  PlannerConfig config;
  config.target_availability = 0.98;  // needs 6 machines at TR 0.5
  config.max_replicas = 8;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.replicas.size(), 6u);
  EXPECT_GE(plan.achieved_availability, config.target_availability);
}

TEST(ReplicationPlannerTest, BudgetExhaustionIsReportedNotSilent) {
  // 48 equal-cost machines of one TR, with A set exactly where six of them
  // land (1 − 0.5^6). Every 6-set ties on cost and availability, so only
  // the id tie-break separates them and no bound can prune a tie: the
  // C(48, 6) ≈ 12M sets overrun the node budget.
  std::vector<ReplicaCandidate> fleet;
  for (int i = 0; i < 48; ++i)
    fleet.push_back({(i < 10 ? "e0" : "e") + std::to_string(i), 0.5, 1.0});
  PlannerConfig config;
  config.target_availability = 1.0 - 1.0 / 64.0;
  config.max_replicas = 8;
  const ReplicationPlan plan = plan_replicas(fleet, config);
  EXPECT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.fallback);
  EXPECT_FALSE(plan.optimal);
  EXPECT_GE(plan.achieved_availability, config.target_availability);
  // Never worse than the TR-prefix certificate under the plan order.
  const BruteResult floor = certificate(fleet, config);
  ASSERT_TRUE(floor.feasible);
  EXPECT_TRUE(plan_ids(plan) == floor.ids ||
              beats(floor, plan.total_cost, plan.achieved_availability,
                    plan_ids(plan)));
}

TEST(ReplicationPlannerTest, ValidatesInput) {
  EXPECT_THROW(plan_replicas({{"x", -0.1, 1.0}}, PlannerConfig{}),
               PreconditionError);
  EXPECT_THROW(plan_replicas({{"x", 1.1, 1.0}}, PlannerConfig{}),
               PreconditionError);
  EXPECT_THROW(plan_replicas({{"x", 0.5, -1.0}}, PlannerConfig{}),
               PreconditionError);
  PlannerConfig bad_target;
  bad_target.target_availability = 1.5;
  EXPECT_THROW(plan_replicas({{"x", 0.5, 1.0}}, bad_target),
               PreconditionError);
  PlannerConfig bad_max;
  bad_max.max_replicas = 0;
  EXPECT_THROW(plan_replicas({{"x", 0.5, 1.0}}, bad_max), PreconditionError);
  PlannerConfig bad_fallback;
  bad_fallback.fallback_replicas = 0;
  EXPECT_THROW(plan_replicas({{"x", 0.5, 1.0}}, bad_fallback),
               PreconditionError);
  EXPECT_THROW(validate(bad_fallback), PreconditionError);
  EXPECT_NO_THROW(validate(PlannerConfig{}));
}

}  // namespace
}  // namespace fgcs
