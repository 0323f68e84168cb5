// Property battery for the transient-VM preemption generator: the contracts
// the planner/estimator stack leans on — byte-identical reproducibility,
// hazard actually increasing in uptime, the hard max-lifetime cutoff never
// leaking an over-age up-spell into a trace, burst revocations correlated
// within (and confined to) their group, and clean round-trips through the
// binary trace format.
#include "workload/preemption.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "test_support.hpp"
#include "util/time.hpp"

namespace fgcs {
namespace {

std::string serialized(const MachineTrace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

/// Maximal runs of consecutive up ticks across the whole trace (spells span
/// day boundaries). Runs cut short by the end of the trace are censored:
/// reported separately so hazard estimates can exclude them.
struct UpRuns {
  std::vector<std::size_t> completed;  // terminated by a down tick
  std::size_t censored = 0;            // the final still-up run, if any
};

UpRuns up_runs(const MachineTrace& trace) {
  UpRuns runs;
  std::size_t current = 0;
  for (std::int64_t day = 0; day < trace.day_count(); ++day) {
    for (std::size_t i = 0; i < trace.samples_per_day(); ++i) {
      if (trace.at(day, i).up()) {
        ++current;
      } else {
        if (current > 0) runs.completed.push_back(current);
        current = 0;
      }
    }
  }
  runs.censored = current;
  return runs;
}

TEST(PreemptionGeneratorTest, SeedReproducibleByteIdentical) {
  const PreemptionParams params;
  const std::vector<MachineTrace> a =
      generate_preemption_fleet(params, 42, 3, 8);
  const std::vector<MachineTrace> b =
      generate_preemption_fleet(params, 42, 3, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].machine_id(), b[m].machine_id());
    EXPECT_EQ(serialized(a[m]), serialized(b[m])) << a[m].machine_id();
  }
  // A different seed must actually change the bytes.
  const std::vector<MachineTrace> c =
      generate_preemption_fleet(params, 43, 3, 8);
  EXPECT_NE(serialized(a[0]), serialized(c[0]));
}

TEST(PreemptionGeneratorTest, EmpiricalHazardIncreasesWithUptime) {
  // Bursts off and the cutoff pushed past every bin, so the up-spell
  // distribution is the pure truncated Weibull: with shape 2.5 the hazard
  // h(t) ∝ t^1.5 should rise steeply across 2-hour uptime bins.
  PreemptionParams params;
  params.hazard_shape = 2.5;
  params.hazard_scale_hours = 6.0;
  params.max_lifetime_hours = 30.0;
  params.burst_rate_per_day = 0.0;
  params.restart_min_s = 300.0;
  params.restart_max_s = 600.0;

  std::vector<std::size_t> spells;
  const std::vector<MachineTrace> fleet =
      generate_preemption_fleet(params, 7, 3, 45);
  for (const MachineTrace& trace : fleet) {
    const UpRuns runs = up_runs(trace);
    spells.insert(spells.end(), runs.completed.begin(), runs.completed.end());
  }
  ASSERT_GT(spells.size(), 200u);  // enough events for stable bin estimates

  // Empirical hazard per 2 h bin: P(die in bin | survived to bin start).
  const std::size_t bin_ticks = 2 * kSecondsPerHour / 60;
  const std::size_t bins = 4;
  std::vector<double> hazard(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    std::size_t at_risk = 0;
    std::size_t died = 0;
    for (const std::size_t len : spells) {
      if (len < b * bin_ticks) continue;
      ++at_risk;
      if (len < (b + 1) * bin_ticks) ++died;
    }
    ASSERT_GT(at_risk, 20u) << "bin " << b;
    hazard[b] = static_cast<double>(died) / static_cast<double>(at_risk);
  }
  for (std::size_t b = 0; b + 1 < bins; ++b)
    EXPECT_LT(hazard[b], hazard[b + 1]) << "bin " << b;
  // And the rise is substantial, not noise-level.
  EXPECT_GT(hazard[bins - 1], 2.0 * hazard[0]);
}

TEST(PreemptionGeneratorTest, NoSpellSurvivesTheMaxLifetimeCutoff) {
  // A long Weibull scale would allow multi-day lifetimes; the hard cutoff
  // must revoke at 6 h regardless.
  PreemptionParams params;
  params.hazard_shape = 1.2;
  params.hazard_scale_hours = 40.0;
  params.max_lifetime_hours = 6.0;
  params.burst_rate_per_day = 0.0;

  const std::size_t cutoff_ticks = 6 * kSecondsPerHour / 60;
  std::size_t revocations = 0;
  for (const MachineTrace& trace :
       generate_preemption_fleet(params, 11, 2, 20)) {
    const UpRuns runs = up_runs(trace);
    for (const std::size_t len : runs.completed) {
      // +1 slack: a spell straddling tick boundaries can touch one extra
      // partially-up tick.
      EXPECT_LE(len, cutoff_ticks + 1);
    }
    EXPECT_LE(runs.censored, cutoff_ticks + 1);
    revocations += runs.completed.size();
  }
  // The cutoff actually fired many times over 20 days.
  EXPECT_GT(revocations, 50u);
}

TEST(PreemptionGeneratorTest, BurstsHitExactlyTheConfiguredGroup) {
  // Hazard effectively disabled (scale and cutoff far beyond the horizon):
  // the ONLY revocations are fleet-wide bursts, so group membership fully
  // determines who goes down, and the whole group shares the burst tick.
  PreemptionParams params;
  params.hazard_shape = 2.0;
  params.hazard_scale_hours = 10000.0;
  params.max_lifetime_hours = 100000.0;
  params.burst_rate_per_day = 0.8;
  params.burst_groups = 3;

  const std::uint64_t seed = 5;
  const int days = 10;
  const int machines = 6;  // groups 0,1,2,0,1,2
  const std::vector<BurstEvent> bursts =
      preemption_burst_schedule(params, seed, days);
  ASSERT_FALSE(bursts.empty());
  const std::vector<MachineTrace> fleet =
      generate_preemption_fleet(params, seed, machines, days);

  const SimTime period = params.sampling_period;
  const auto ticks_per_day = static_cast<std::size_t>(kSecondsPerDay / period);
  auto up_at = [&](const MachineTrace& trace, std::size_t tick) {
    return trace.at(static_cast<std::int64_t>(tick / ticks_per_day),
                    tick % ticks_per_day)
        .up();
  };
  /// Whether `group` has a burst within [t - pad, t + pad] — used to excuse
  /// other groups only when their own schedule overlaps the probed tick.
  auto group_busy_near = [&](int group, double t, double pad) {
    for (const BurstEvent& event : bursts)
      if (event.group == group && event.time_s >= t - pad &&
          event.time_s <= t + pad)
        return true;
    return false;
  };

  int verified_bursts = 0;
  for (const BurstEvent& event : bursts) {
    const auto tick = static_cast<std::size_t>(
        event.time_s / static_cast<double>(period));
    if (tick >= ticks_per_day * static_cast<std::size_t>(days)) continue;
    for (int m = 0; m < machines; ++m) {
      const int group = m % params.burst_groups;
      if (group == event.group) {
        // Correlated: every member is down at the burst instant.
        EXPECT_FALSE(up_at(fleet[static_cast<std::size_t>(m)], tick))
            << "machine " << m << " burst at " << event.time_s;
      } else if (!group_busy_near(group, event.time_s,
                                  params.burst_down_max_s +
                                      static_cast<double>(period))) {
        // Confined: a machine of another group is untouched unless its own
        // group's burst outage overlaps this tick.
        EXPECT_TRUE(up_at(fleet[static_cast<std::size_t>(m)], tick))
            << "machine " << m << " burst at " << event.time_s;
      }
    }
    ++verified_bursts;
  }
  EXPECT_GE(verified_bursts, 3);
}

TEST(PreemptionGeneratorTest, RoundTripsThroughBinarySaveLoad) {
  PreemptionParams params;
  const PreemptionTraceGenerator generator(params, 99);
  const MachineTrace original = generator.generate("vm-rt", 1, 12);

  std::stringstream stream;
  original.save(stream);
  const MachineTrace loaded = MachineTrace::load(stream);

  ASSERT_EQ(loaded.day_count(), original.day_count());
  ASSERT_EQ(loaded.samples_per_day(), original.samples_per_day());
  EXPECT_EQ(loaded.machine_id(), original.machine_id());
  for (std::int64_t day = 0; day < original.day_count(); ++day)
    for (std::size_t i = 0; i < original.samples_per_day(); ++i)
      ASSERT_EQ(loaded.at(day, i), original.at(day, i))
          << "day " << day << " tick " << i;
}

}  // namespace
}  // namespace fgcs
