#include "ishare/replication_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace fgcs {

double joint_availability(std::span<const ReplicaCandidate> replicas) {
  double miss = 1.0;
  for (const ReplicaCandidate& replica : replicas) miss *= 1.0 - replica.tr;
  return 1.0 - miss;
}

void validate(const PlannerConfig& config) {
  FGCS_REQUIRE(config.target_availability >= 0.0 &&
               config.target_availability <= 1.0);
  FGCS_REQUIRE(config.max_replicas >= 1);
  FGCS_REQUIRE(config.fallback_replicas >= 1);
}

namespace {

/// Candidate sets the branch and bound may visit before it returns its
/// incumbent unproven. Proving a plan on the 48-VM `sharded_plan` fleets
/// takes at most ~27k sets (A = 0.999); an exhausted search on 48 VMs costs
/// a few milliseconds.
constexpr std::size_t kNodeBudget = std::size_t{1} << 16;

/// Widest extension the bound tables cover. A subtree that may still add
/// more replicas than this is never pruned on availability.
constexpr std::size_t kBoundTerms = 32;

/// Relative slack for a bound built from `terms` sorted terms: it covers
/// the rounding of those terms accumulated in a different order than the
/// canonical one (at most 2·terms + 2 roundings of 2^-53 each).
double slack(std::size_t terms) {
  return static_cast<double>(2 * terms + 4) *
         std::numeric_limits<double>::epsilon();
}

/// Candidates ranked for selection: TR descending, machine id ascending on
/// ties — never the unspecified order std::sort would leave tied TRs in.
bool ranks_before(const ReplicaCandidate& a, const ReplicaCandidate& b) {
  if (a.tr != b.tr) return a.tr > b.tr;
  return a.machine_id < b.machine_id;
}

/// The canonical order. TR and cost only order duplicate ids, so the plan
/// stays a function of the candidate multiset even then.
bool id_before(const ReplicaCandidate& a, const ReplicaCandidate& b) {
  if (a.machine_id != b.machine_id) return a.machine_id < b.machine_id;
  if (a.tr != b.tr) return a.tr > b.tr;
  return a.cost < b.cost;
}

/// Canonical-order metrics of one candidate set.
struct SetMetrics {
  double cost = 0.0;
  double availability = 0.0;
};

/// `set` holds ascending indices into the id-sorted candidates, so the sums
/// and products run in the canonical order.
SetMetrics metrics_of(std::span<const ReplicaCandidate> by_id,
                      std::span<const std::size_t> set) {
  double cost = 0.0;
  double miss = 1.0;
  for (const std::size_t i : set) {
    cost += by_id[i].cost;
    miss *= 1.0 - by_id[i].tr;
  }
  return {cost, 1.0 - miss};
}

/// Keeps `values` the `cap` smallest seen so far, ascending.
void insert_bounded(std::vector<double>& values, double value,
                    std::size_t cap) {
  values.insert(std::upper_bound(values.begin(), values.end(), value), value);
  if (values.size() > cap) values.pop_back();
}

/// Depth-first branch and bound over every subset of size <= max_take.
/// Sets are built in canonical (id) order, so a node's running cost and
/// miss product are exactly the canonical prefix sums/products of the final
/// set, and extending a set never lowers its cost nor raises its miss.
class Search {
 public:
  Search(std::span<const ReplicaCandidate> by_id, std::size_t max_take,
         double target)
      : by_id_(by_id),
        n_(by_id.size()),
        max_take_(max_take),
        width_(std::min(max_take, kBoundTerms)),
        target_(target),
        least_miss_((n_ + 1) * (width_ + 1)),
        cheapest_(n_ + 1, std::numeric_limits<double>::infinity()),
        gain_(n_),
        by_ratio_(n_) {
    // Row p of least_miss_ bounds the suffix [p, n): the products of its
    // r <= width_ smallest miss factors (1 − TR), taken in ascending order.
    std::vector<double> factors;
    for (std::size_t p = n_; p-- > 0;) {
      cheapest_[p] = std::min(cheapest_[p + 1], by_id_[p].cost);
      insert_bounded(factors, 1.0 - by_id_[p].tr, width_);
      double product = 1.0;
      for (std::size_t r = 0; r < factors.size(); ++r) {
        product *= factors[r];
        least_miss_[p * (width_ + 1) + r + 1] = product;
      }
    }
    // Log gains −ln(1 − TR) (+inf at TR = 1), best gain per unit cost first.
    for (std::size_t i = 0; i < n_; ++i)
      gain_[i] = -std::log(1.0 - by_id_[i].tr);
    const auto ratio = [&](std::size_t i) {
      return gain_[i] == 0.0 ? 0.0 : gain_[i] / by_id_[i].cost;
    };
    std::iota(by_ratio_.begin(), by_ratio_.end(), std::size_t{0});
    std::stable_sort(by_ratio_.begin(), by_ratio_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ratio(a) > ratio(b);
                     });
  }

  /// Offers `set` (ascending indices) as the incumbent.
  void consider(const std::vector<std::size_t>& set) {
    const SetMetrics m = metrics_of(by_id_, set);
    if (m.availability < target_) return;
    if (found_ && !better(m, set)) return;
    found_ = true;
    best_metrics_ = m;
    best_ = set;
  }

  /// Searches from the empty set; false when the node budget ran out.
  bool run() {
    extend(0, 0.0, 1.0);
    return !exhausted_;
  }

  bool found() const { return found_; }
  const std::vector<std::size_t>& best() const { return best_; }
  const SetMetrics& best_metrics() const { return best_metrics_; }

 private:
  /// Visits every child of the current set `chosen_` (running cost and miss
  /// product given) that adds one candidate at index >= `from`.
  void extend(std::size_t from, double cost, double miss) {
    for (std::size_t i = from; i < n_; ++i) {
      if (nodes_ == kNodeBudget) {
        exhausted_ = true;
        return;
      }
      ++nodes_;
      const double set_cost = cost + by_id_[i].cost;
      if (found_ && set_cost > best_metrics_.cost) continue;
      const double set_miss = miss * (1.0 - by_id_[i].tr);
      chosen_.push_back(i);
      const double availability = 1.0 - set_miss;
      if (availability >= target_ &&
          (!found_ || set_cost < best_metrics_.cost ||
           availability >= best_metrics_.availability))
        consider(chosen_);
      if (may_improve(i + 1, set_cost, set_miss))
        extend(i + 1, set_cost, set_miss);
      chosen_.pop_back();
      if (exhausted_) return;
    }
  }

  /// Whether some extension of `chosen_` by candidates at index >= `from`
  /// could beat the incumbent (or, with none yet, meet the target).
  bool may_improve(std::size_t from, double cost, double miss) const {
    if (from == n_ || chosen_.size() == max_take_) return false;
    const std::size_t slots = std::min(max_take_ - chosen_.size(), n_ - from);
    double need = target_;
    if (found_) {
      // Every extension adds at least the cheapest remaining cost, and
      // fl(a + b) never falls below a for b >= 0: exact, no slack needed.
      const double next_cost = cost + cheapest_[from];
      if (next_cost > best_metrics_.cost) return false;
      if (next_cost == best_metrics_.cost) need = best_metrics_.availability;
    }
    if (slots <= width_) {
      // No extension of at most `slots` items can push the miss product
      // below the `slots` smallest remaining factors times `miss`.
      const double miss_floor =
          miss * least_miss_[from * (width_ + 1) + slots] *
          (1.0 - slack(slots));
      if (1.0 - miss_floor < need) return false;
    }
    return !found_ || 1.0 - knapsack_floor(from, cost, miss) >= need;
  }

  /// A floor on the miss product of every extension the incumbent's cost
  /// still affords: the fractional knapsack over log gains, which no
  /// affordable set of whole candidates can beat. Its slack covers the
  /// affordable budget's rounding, the ratio-order sums and a few ulp of
  /// error in libm's log and exp.
  double knapsack_floor(std::size_t from, double cost, double miss) const {
    const double s = slack(n_ + 16);
    const double budget = best_metrics_.cost * (1.0 + s) - cost;
    double used = 0.0;
    double gain = 0.0;
    for (const std::size_t i : by_ratio_) {
      const double item_cost = by_id_[i].cost;
      if (i < from || gain_[i] == 0.0 || item_cost > budget) continue;
      if (used + item_cost <= budget) {
        used += item_cost;
        gain += gain_[i];
        continue;
      }
      if (budget > used) gain += gain_[i] * ((budget - used) / item_cost);
      break;
    }
    return miss * std::exp(-gain * (1.0 + s)) * (1.0 - s);
  }

  bool better(const SetMetrics& m, const std::vector<std::size_t>& set) const {
    if (m.cost != best_metrics_.cost) return m.cost < best_metrics_.cost;
    if (m.availability != best_metrics_.availability)
      return m.availability > best_metrics_.availability;
    if (set.size() != best_.size()) return set.size() < best_.size();
    return std::lexicographical_compare(
        set.begin(), set.end(), best_.begin(), best_.end(),
        [&](std::size_t a, std::size_t b) {
          return by_id_[a].machine_id < by_id_[b].machine_id;
        });
  }

  std::span<const ReplicaCandidate> by_id_;
  std::size_t n_;
  std::size_t max_take_;
  std::size_t width_;
  double target_;
  std::vector<double> least_miss_;
  std::vector<double> cheapest_;        ///< least cost in each suffix
  std::vector<double> gain_;            ///< −ln(1 − TR) per candidate
  std::vector<std::size_t> by_ratio_;   ///< gain per unit cost, descending

  std::vector<std::size_t> chosen_;
  std::size_t nodes_ = 0;
  bool exhausted_ = false;
  bool found_ = false;
  SetMetrics best_metrics_;
  std::vector<std::size_t> best_;
};

}  // namespace

ReplicationPlan plan_replicas(std::vector<ReplicaCandidate> candidates,
                              const PlannerConfig& config) {
  validate(config);
  for (const ReplicaCandidate& candidate : candidates) {
    FGCS_REQUIRE(std::isfinite(candidate.tr) && candidate.tr >= 0.0 &&
                 candidate.tr <= 1.0);
    FGCS_REQUIRE(std::isfinite(candidate.cost) && candidate.cost >= 0.0);
  }

  ReplicationPlan plan;
  plan.target_availability = config.target_availability;
  if (candidates.empty()) {
    plan.fallback = true;
    return plan;
  }

  std::sort(candidates.begin(), candidates.end(), id_before);
  const std::vector<ReplicaCandidate>& by_id = candidates;
  const std::size_t n = by_id.size();
  std::vector<std::size_t> ranked(n);
  std::iota(ranked.begin(), ranked.end(), std::size_t{0});
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    return ranks_before(by_id[a], by_id[b]);
  });
  // The `take` highest-TR candidates, as a canonical (ascending) set.
  const auto top = [&](std::size_t take) {
    std::vector<std::size_t> set(
        ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(take));
    std::sort(set.begin(), set.end());
    return set;
  };

  const std::size_t max_take =
      std::min<std::size_t>(static_cast<std::size_t>(config.max_replicas), n);
  Search search(by_id, max_take, config.target_availability);
  // Greedy-by-TR certificate: the size-m prefix of the ranking maximizes
  // joint availability among all size-m subsets, so the best prefix is the
  // first incumbent and decides feasibility even when the budget runs out.
  for (std::size_t m = 1; m <= max_take; ++m) search.consider(top(m));
  plan.optimal = search.run();

  if (search.found()) {
    plan.feasible = true;
    for (const std::size_t i : search.best()) plan.replicas.push_back(by_id[i]);
    plan.achieved_availability = search.best_metrics().availability;
    plan.total_cost = search.best_metrics().cost;
    return plan;
  }

  // Infeasible: fall back to fixed degree on the highest-TR machines, and
  // report the shortfall instead of hiding it.
  plan.fallback = true;
  const std::vector<std::size_t> fallback = top(std::min<std::size_t>(
      static_cast<std::size_t>(config.fallback_replicas), n));
  for (const std::size_t i : fallback) plan.replicas.push_back(by_id[i]);
  const SetMetrics m = metrics_of(by_id, fallback);
  plan.achieved_availability = m.availability;
  plan.total_cost = m.cost;
  return plan;
}

}  // namespace fgcs
