// End-to-end integration tests: generator → monitor → estimator → predictor
// → evaluation, exercising the full pipeline the benchmarks rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "fgcs.hpp"
#include "test_support.hpp"

namespace fgcs {
namespace {

WorkloadParams fast_params() {
  WorkloadParams params;
  params.sampling_period = 60;
  return params;
}

TEST(IntegrationTest, PredictionBeatsCoinFlipOnGeneratedTraces) {
  // Generate 6 weeks, train on the first half, evaluate windows on the rest.
  TraceGenerator generator(fast_params(), 101);
  const MachineTrace trace = generator.generate("m0", 42);
  EstimatorConfig config;
  config.training_days = 10;
  config.thresholds = test::test_thresholds();
  const AvailabilityPredictor predictor(config);
  const StateClassifier classifier(config.thresholds, 60);

  RunningStats errors;
  for (const SimTime start_hour : {8, 12, 18}) {
    for (const SimTime len_hours : {1, 2, 4}) {
      const TimeWindow window{.start_of_day = start_hour * kSecondsPerHour,
                              .length = len_hours * kSecondsPerHour};
      // Evaluate against all later weekdays of the same type.
      std::vector<std::int64_t> test_days;
      for (std::int64_t d = 28; d < 42; ++d)
        if (trace.day_type(d) == DayType::kWeekday) test_days.push_back(d);

      const Prediction p = predictor.predict(
          trace, {.target_day = test_days.front(), .window = window});
      const EmpiricalTr emp = empirical_tr(trace, test_days, window, classifier);
      if (!emp.tr || *emp.tr <= 0.0) continue;
      errors.add(relative_error(p.temporal_reliability, *emp.tr));
    }
  }
  ASSERT_GT(errors.count(), 4u);
  // The paper reports ≤ 13.5% average error on the real testbed; on the
  // synthetic substrate we only insist the prediction is clearly informative.
  EXPECT_LT(errors.mean(), 0.35);
}

TEST(IntegrationTest, MonitorReconstructionFeedsPredictorIdentically) {
  TraceGenerator generator(fast_params(), 77);
  const MachineTrace source = generator.generate("m0", 8);
  auto machine = make_replay_machine(source, test::test_thresholds());
  ResourceMonitor monitor(*machine);
  for (SimTime t = 60; t <= 8 * kSecondsPerDay; t += 60) monitor.on_tick(t);
  const MachineTrace observed = monitor.to_trace();
  ASSERT_EQ(observed.day_count(), 8);

  const AvailabilityPredictor predictor;
  const TimeWindow window{.start_of_day = 9 * kSecondsPerHour,
                          .length = 2 * kSecondsPerHour};
  const Prediction from_source =
      predictor.predict(source, {.target_day = 7, .window = window});
  const Prediction from_observed =
      predictor.predict(observed, {.target_day = 7, .window = window});
  // Downtime reconstruction zeroes the load during outages, which the
  // classifier maps to S5 either way: predictions agree.
  EXPECT_NEAR(from_source.temporal_reliability,
              from_observed.temporal_reliability, 1e-9);
}

TEST(IntegrationTest, SchedulerPrefersMachineThatCompletesFaster) {
  const auto service = std::make_shared<PredictionService>();
  // A quiet machine and a busy one: the TR-driven scheduler should finish a
  // morning job sooner than it would on the busy machine.
  WorkloadParams quiet = fast_params();
  quiet.session_rate_per_hour = 1.0;
  quiet.spike_rate_per_hour = 0.05;
  quiet.reboot_rate_per_day = 0.05;
  WorkloadParams busy = fast_params();
  busy.session_rate_per_hour = 14.0;
  busy.spike_rate_per_hour = 3.0;

  TraceGenerator quiet_generator(quiet, 5);
  TraceGenerator busy_generator(busy, 6);
  const MachineTrace quiet_trace = quiet_generator.generate("quiet", 10);
  const MachineTrace busy_trace = busy_generator.generate("busy", 10);

  Gateway quiet_gateway(quiet_trace, test::test_thresholds(), service);
  Gateway busy_gateway(busy_trace, test::test_thresholds(), service);
  Registry registry;
  registry.publish(quiet_gateway);
  registry.publish(busy_gateway);

  const JobScheduler scheduler(registry, service);
  const SimTime submit = 8 * kSecondsPerDay + 9 * kSecondsPerHour;
  Gateway* selected = scheduler.select_machine(submit, 2 * kSecondsPerHour);
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->machine_id(), "quiet");
}

TEST(IntegrationTest, NoiseInjectionDisturbsSmallWindowsMore) {
  // A miniature of the paper's Fig. 8 mechanism: one injected occurrence in
  // each of four recent training days, shortly after 8:00.
  TraceGenerator generator(fast_params(), 55);
  const MachineTrace clean = generator.generate("m0", 12);
  NoiseParams noise;
  noise.around = 8 * kSecondsPerHour + 25 * kSecondsPerMinute;
  noise.spread = 20 * kSecondsPerMinute;
  Rng rng(9);
  MachineTrace noisy = clean;
  for (const std::int64_t day : {7, 8, 9, 10})
    noisy = inject_unavailability(noisy, day, 1, noise, rng);

  EstimatorConfig config;
  config.training_days = 8;
  const AvailabilityPredictor predictor(config);

  auto discrepancy = [&](SimTime hours) {
    const TimeWindow w{.start_of_day = 8 * kSecondsPerHour,
                       .length = hours * kSecondsPerHour};
    const double tr_clean =
        predictor.predict(clean, {.target_day = 11, .window = w})
            .temporal_reliability;
    const double tr_noisy =
        predictor.predict(noisy, {.target_day = 11, .window = w})
            .temporal_reliability;
    return tr_clean > 0 ? std::abs(tr_clean - tr_noisy) / tr_clean : 0.0;
  };
  // Four instances must clearly disturb the 1 h window…
  EXPECT_GT(discrepancy(1), 0.10);
  // …and more than (or comparably to) the 8 h window, which dilutes them.
  EXPECT_GE(discrepancy(1) + 1e-9, discrepancy(8) * 0.5);
}

TEST(IntegrationTest, FullTraceSaveLoadPredictRoundTrip) {
  TraceGenerator generator(fast_params(), 31);
  const MachineTrace trace = generator.generate("m0", 10);
  std::stringstream buffer;
  trace.save(buffer);
  const MachineTrace loaded = MachineTrace::load(buffer);

  const AvailabilityPredictor predictor;
  const TimeWindow window{.start_of_day = 10 * kSecondsPerHour,
                          .length = 3 * kSecondsPerHour};
  const double a = predictor.predict(trace, {.target_day = 9, .window = window})
                       .temporal_reliability;
  const double b =
      predictor.predict(loaded, {.target_day = 9, .window = window})
          .temporal_reliability;
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace fgcs
