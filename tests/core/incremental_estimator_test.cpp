// The PR's primary differential gate: an IncrementalEstimator fed one
// mutation at a time (day closed, day retired, partial-day append) must stay
// *bit-identical* — exact double bits, not a tolerance — to a from-scratch
// SmpEstimator over the surviving trace, after EVERY mutation of 1000+
// seeded sequences. The counts are integers, so any divergence means the
// add/subtract bookkeeping (not floating-point noise) is wrong.
//
// The fuzz drives a real TraceStore (sample-level appends, day-boundary
// rollup, retention-based retirement) with the estimator hooked to its
// DayClosedCallback — the exact wiring a streaming consumer uses — so the
// battery also pins the store's close/retire event contract.
#include "core/incremental_estimator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/estimator.hpp"
#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "trace/trace_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fgcs {
namespace {

using test::sample;

/// EXPECT the same bit pattern — catches ±0.0 and NaN-payload drift that
/// operator== would wave through.
void expect_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << ": " << got << " vs " << want;
}

void expect_counts_equal(const TransitionCounts& got,
                         const TransitionCounts& want) {
  ASSERT_EQ(got.horizon(), want.horizon());
  for (const State from : {State::kS1, State::kS2}) {
    EXPECT_EQ(got.censored(from), want.censored(from));
    EXPECT_EQ(got.entries(from), want.entries(from));
    for (std::size_t to = 0; to < kStateCount; ++to)
      for (std::size_t hold = 1; hold <= want.horizon(); ++hold)
        EXPECT_EQ(got.count(from, state_from_index(to), hold),
                  want.count(from, state_from_index(to), hold))
            << "count(" << index_of(from) << "," << to << "," << hold << ")";
  }
}

void expect_models_bit_identical(const SmpModel& got, const SmpModel& want) {
  ASSERT_EQ(got.horizon(), want.horizon());
  for (std::size_t from = 0; from < 2; ++from) {
    expect_bits(got.exit_mass(from), want.exit_mass(from), "exit_mass");
    for (std::size_t to = 0; to < kStateCount; ++to) {
      expect_bits(got.q(from, to), want.q(from, to), "q");
      for (std::size_t hold = 1; hold <= want.horizon(); ++hold)
        expect_bits(got.h(from, to, hold), want.h(from, to, hold), "h");
    }
  }
}

/// One synthetic day: a load random-walk with occasional multi-sample outages
/// and memory pressure, rich enough to visit all five states.
std::vector<ResourceSample> random_day(Rng& rng, std::size_t per_day) {
  std::vector<ResourceSample> day;
  day.reserve(per_day);
  int load = static_cast<int>(rng.uniform_int(0, 100));
  std::size_t down_run = 0;
  for (std::size_t i = 0; i < per_day; ++i) {
    if (down_run == 0 && rng.uniform_int(0, 19) == 0)
      down_run = static_cast<std::size_t>(rng.uniform_int(1, 4));
    load += static_cast<int>(rng.uniform_int(-25, 25));
    load = std::clamp(load, 0, 100);
    const int mem = rng.uniform_int(0, 6) == 0
                        ? static_cast<int>(rng.uniform_int(1, 40))
                        : static_cast<int>(rng.uniform_int(100, 500));
    const bool up = down_run == 0;
    if (down_run > 0) --down_run;
    day.push_back(sample(up ? load : 0, mem, up));
  }
  return day;
}

/// The scratch target: the first day at/after the end of the recorded trace
/// whose type matches the estimator's pinned type (always within a week).
std::int64_t matching_target(const MachineTrace& trace, DayType type) {
  for (std::int64_t t = trace.day_count(); t < trace.day_count() + 7; ++t)
    if (trace.day_type(t) == type) return t;
  ADD_FAILURE() << "no matching day type within a week";
  return trace.day_count();
}

/// Full incremental-vs-scratch comparison over the store's current snapshot:
/// selected days, raw counts, every model double, the majority initial
/// state, and the TR the solver derives — all exact.
void expect_differential(const TraceStore& store, const std::string& id,
                         const IncrementalEstimator& incremental,
                         const EstimatorConfig& config) {
  const std::shared_ptr<const MachineTrace> snap = store.snapshot(id);
  ASSERT_NE(snap, nullptr);
  const SmpEstimator scratch(config);
  const std::int64_t target =
      matching_target(*snap, incremental.day_type());
  const std::vector<std::int64_t> days =
      scratch.training_days_for(*snap, target, incremental.window());

  ASSERT_EQ(incremental.counted_days(), days.size());
  const std::vector<std::int64_t> ids = incremental.counted_day_ids();
  const std::int64_t first = store.first_day_id(id);
  for (std::size_t i = 0; i < days.size(); ++i)
    EXPECT_EQ(ids[i], first + days[i]) << "counted day id " << i;

  const TransitionCounts want =
      scratch.count_transitions(*snap, days, incremental.window());
  expect_counts_equal(incremental.counts(), want);

  const SmpModel want_model = scratch.build_model(want);
  const SmpModel got_model = incremental.model();
  expect_models_bit_identical(got_model, want_model);

  const State init = incremental.majority_initial_state();
  EXPECT_EQ(init, want.majority_initial_state());

  const std::size_t steps =
      incremental.window().steps(snap->sampling_period());
  expect_bits(SparseTrSolver(got_model).solve(init, steps).temporal_reliability,
              SparseTrSolver(want_model).solve(init, steps).temporal_reliability,
              "temporal_reliability");
}

TEST(IncrementalEstimatorFuzz, IncrementalMatchesScratchAfterEveryMutation) {
  int mutations = 0;
  int partial_appends = 0;
  int closes = 0;
  int retires = 0;
  int wrap_scenarios = 0;

  for (std::uint64_t scenario = 0; scenario < 40; ++scenario) {
    Rng rng(0x1c9e'0000u + scenario);
    // Coarse periods keep a day at 12–48 samples so 40 scenarios × 30
    // mutations of full differential checks stay fast.
    const SimTime period =
        (std::array<SimTime, 3>{1800, 3600, 7200})[static_cast<std::size_t>(
            rng.uniform_int(0, 2))];
    const std::size_t per_day =
        static_cast<std::size_t>(kSecondsPerDay / period);

    EstimatorConfig config;
    config.training_days = static_cast<std::size_t>(rng.uniform_int(0, 5));
    if (rng.uniform_int(0, 3) == 0) config.laplace_alpha = 0.5;

    // ~1/4 of the windows wrap midnight (the eligibility-lag path).
    TimeWindow window;
    const std::int64_t max_steps =
        std::min<std::int64_t>(8, static_cast<std::int64_t>(per_day));
    const std::int64_t steps = rng.uniform_int(1, max_steps);
    if (rng.uniform_int(0, 3) == 0) {
      window.start_of_day =
          kSecondsPerDay - rng.uniform_int(1, steps) * period;
      ++wrap_scenarios;
    } else {
      window.start_of_day =
          rng.uniform_int(0, static_cast<std::int64_t>(per_day) - 1) * period;
    }
    window.length = steps * period;

    const MachineSpec spec{.machine_id = "fuzz",
                           .epoch_day_of_week =
                               static_cast<int>(rng.uniform_int(0, 6)),
                           .sampling_period = period,
                           .total_mem_mb = 512};
    const DayType day_type =
        rng.uniform_int(0, 1) == 0 ? DayType::kWeekday : DayType::kWeekend;

    IncrementalEstimator incremental(config, window, day_type, period);
    TraceStoreConfig store_config;
    // Retention 0 (keep everything) or a small sliding window, including
    // windows smaller than the training budget.
    store_config.retention_days =
        rng.uniform_int(0, 1) == 0 ? 0 : rng.uniform_int(2, 6);
    int scenario_retires = 0;
    TraceStore store(
        store_config,
        [&](const TraceStore::DayClosedEvent& event) {
          if (event.retired_day >= 0) {
            incremental.on_day_retired(event.retired_day);
            ++scenario_retires;
          }
          incremental.on_day_appended(*event.trace, event.first_day_id);
        });
    store.register_machine(spec);

    // Mutation stream: sample-level appends in random shapes. A chunk that
    // stays short of the day boundary is the "append-partial-day" op and
    // must close nothing; a chunk crossing one or more boundaries closes
    // (and, under retention, retires) days through the callback.
    std::vector<ResourceSample> pending;
    std::uint64_t next_index = 0;
    for (int mutation = 0; mutation < 30; ++mutation) {
      const std::size_t buffered = store.buffered_samples("fuzz");
      std::size_t count = 0;
      const std::int64_t op = rng.uniform_int(0, 3);
      if (op == 0) {
        // Partial append: stop strictly inside the current day.
        count = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(per_day - buffered)));
        if (count == per_day - buffered) count = per_day - buffered - 1;
        if (count == 0) count = per_day - buffered > 1 ? 1 : 0;
      } else {
        // Close 1–2 days (plus whatever tops off the buffered partial day).
        count = (per_day - buffered) +
                (op == 3 ? per_day : 0) +
                static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(per_day) - 1));
      }
      if (count == 0) continue;
      while (pending.size() < count) {
        const std::vector<ResourceSample> day = random_day(rng, per_day);
        pending.insert(pending.end(), day.begin(), day.end());
      }
      const std::vector<ResourceSample> chunk(pending.begin(),
                                              pending.begin() +
                                                  static_cast<std::ptrdiff_t>(count));
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(count));

      const std::size_t counted_before = incremental.counted_days();
      const AppendResult result = store.append(spec, next_index, chunk);
      next_index = result.next_index;
      ++mutations;
      closes += static_cast<int>(result.days_closed);
      if (op == 0) {
        ++partial_appends;
        EXPECT_EQ(result.days_closed, 0u) << "partial append closed a day";
        EXPECT_EQ(incremental.counted_days(), counted_before)
            << "partial append moved the estimator";
      }
      expect_differential(store, "fuzz", incremental, config);
      if (HasFailure()) {
        ADD_FAILURE() << "scenario=" << scenario << " mutation=" << mutation
                      << " period=" << period
                      << " window=" << window.describe()
                      << " training=" << config.training_days
                      << " retention=" << store_config.retention_days;
        return;
      }
    }
    retires += scenario_retires;
  }

  EXPECT_GE(mutations, 1000) << "battery shrank below the 1000-sequence gate";
  EXPECT_GT(partial_appends, 100);
  EXPECT_GT(closes, 500);
  EXPECT_GT(retires, 100);
  EXPECT_GT(wrap_scenarios, 4);
}

// ---- targeted edges the fuzz could only hit by luck ----

TEST(TransitionCountsTest, RemoveIsExactInverseOfAccumulate) {
  Rng rng(0xadd5'b00du);
  for (int round = 0; round < 200; ++round) {
    TransitionCounts counts(12);
    std::vector<std::vector<State>> windows;
    for (int w = 0; w < 5; ++w) {
      std::vector<State> states;
      const std::int64_t n = rng.uniform_int(1, 13);
      for (std::int64_t i = 0; i < n; ++i)
        states.push_back(state_from_index(
            static_cast<std::size_t>(rng.uniform_int(0, kStateCount - 1))));
      counts.accumulate(states);
      windows.push_back(std::move(states));
    }
    // Remove in a different order than added: counts are order-free sums.
    for (std::size_t w = windows.size(); w > 0; --w)
      counts.remove(windows[w - 1]);
    for (const State from : {State::kS1, State::kS2}) {
      EXPECT_EQ(counts.entries(from), 0u);
      EXPECT_EQ(counts.censored(from), 0u);
    }
  }
}

TEST(TransitionCountsTest, RemovingUnseenWindowTripsPrecondition) {
  TransitionCounts counts(5);
  const std::vector<State> states{State::kS1, State::kS2};
  EXPECT_THROW(counts.remove(states), PreconditionError);
}

TEST(IncrementalEstimatorTest, WrapWindowLagsOneDayBehindAppends) {
  const TimeWindow window{.start_of_day = 23 * kSecondsPerHour,
                          .length = 2 * kSecondsPerHour};
  ASSERT_TRUE(window.wraps_midnight());
  const MachineTrace trace = test::constant_trace(/*days=*/3, /*load_pct=*/10,
                                                  /*period=*/3600);
  IncrementalEstimator incremental({}, window, DayType::kWeekday, 3600);
  // Appending day 0 completes nothing; day 1 completes day 0's window.
  incremental.on_day_appended(trace.slice(0, 1), 0);
  EXPECT_EQ(incremental.counted_days(), 0u);
  incremental.on_day_appended(trace.slice(0, 2), 0);
  EXPECT_EQ(incremental.counted_days(), 1u);
  EXPECT_EQ(incremental.counted_day_ids(), (std::vector<std::int64_t>{0}));
}

TEST(IncrementalEstimatorTest, RetireBelowTheFrontIsANoOp) {
  const MachineTrace trace = test::constant_trace(/*days=*/4, /*load_pct=*/10,
                                                  /*period=*/3600);
  const TimeWindow window{.start_of_day = 9 * kSecondsPerHour,
                          .length = 2 * kSecondsPerHour};
  EstimatorConfig config;
  config.training_days = 2;
  IncrementalEstimator incremental(config, window, DayType::kWeekday, 3600);
  for (std::int64_t d = 1; d <= trace.day_count(); ++d)
    incremental.on_day_appended(trace.slice(0, d), 0);
  // Budget 2 already trimmed days 0 and 1 out; retiring them changes nothing.
  const std::vector<std::int64_t> before = incremental.counted_day_ids();
  incremental.on_day_retired(0);
  incremental.on_day_retired(1);
  EXPECT_EQ(incremental.counted_day_ids(), before);
  // Retiring the real front does subtract.
  incremental.on_day_retired(before.front());
  EXPECT_EQ(incremental.counted_days(), before.size() - 1);
}

TEST(IncrementalEstimatorTest, RebuildMatchesIncrementalFeed) {
  Rng rng(0x9e3b'21u);
  const SimTime period = 3600;
  const std::size_t per_day = static_cast<std::size_t>(kSecondsPerDay / period);
  MachineTrace trace("m", Calendar(2), period, 512);
  for (int d = 0; d < 9; ++d) trace.append_day(random_day(rng, per_day));

  const TimeWindow window{.start_of_day = 7 * kSecondsPerHour,
                          .length = 3 * kSecondsPerHour};
  EstimatorConfig config;
  config.training_days = 3;
  IncrementalEstimator fed(config, window, DayType::kWeekday, period);
  for (std::int64_t d = 1; d <= trace.day_count(); ++d)
    fed.on_day_appended(trace.slice(0, d), 0);
  IncrementalEstimator rebuilt(config, window, DayType::kWeekday, period);
  rebuilt.rebuild(trace, 0);

  EXPECT_EQ(rebuilt.counted_day_ids(), fed.counted_day_ids());
  expect_counts_equal(rebuilt.counts(), fed.counts());
  expect_models_bit_identical(rebuilt.model(), fed.model());
}

TEST(IncrementalEstimatorTest, OutOfOrderAppendTripsPrecondition) {
  const MachineTrace trace = test::constant_trace(/*days=*/2, /*load_pct=*/10,
                                                  /*period=*/3600);
  const TimeWindow window{.start_of_day = 9 * kSecondsPerHour,
                          .length = 2 * kSecondsPerHour};
  IncrementalEstimator incremental({}, window, DayType::kWeekday, 3600);
  incremental.on_day_appended(trace, 0);
  // Re-announcing the same trace end re-offers day id 1 — not ascending.
  EXPECT_THROW(incremental.on_day_appended(trace, 0), PreconditionError);
}

}  // namespace
}  // namespace fgcs
