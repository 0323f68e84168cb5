// Fig. 4 — computation time of resource availability prediction for time
// windows of different lengths, at the paper's native 6 s sampling period.
//
// Three series. As in the paper: the Q/H parameter computation alone, and
// the whole prediction with the paper's own Eq. 3 recursion (estimation plus
// SparseTrSolver::solve), which is O(n²) in the number of discretization
// steps n = T/d — google-benchmark's complexity fit reports the measured
// exponent (the paper measured ≈ n^1.85 on its 2005 testbed). And the whole
// prediction as the library serves it (AvailabilityPredictor::predict: one
// AbsorptionCurves build, which visits only the nonzero kernel lags).
#include <benchmark/benchmark.h>

#include "harness.hpp"

namespace {

using namespace fgcs;

const MachineTrace& paper_rate_trace() {
  // 3 weeks at the paper's 6 s sampling: enough history for 10 training
  // weekdays, small enough to generate once.
  static const MachineTrace trace = [] {
    WorkloadParams params;
    params.sampling_period = 6;
    TraceGenerator generator(params, bench::kFleetSeed);
    return generator.generate("fig4", 21);
  }();
  return trace;
}

TimeWindow window_of_hours(std::int64_t hours) {
  return TimeWindow{.start_of_day = 8 * kSecondsPerHour,
                    .length = hours * kSecondsPerHour};
}

void BM_QHComputation(benchmark::State& state) {
  const MachineTrace& trace = paper_rate_trace();
  const SmpEstimator estimator(bench::bench_estimator_config());
  const TimeWindow window = window_of_hours(state.range(0));
  for (auto _ : state) {
    SmpModel model = estimator.estimate(trace, 20, window);
    benchmark::DoNotOptimize(model);
  }
  state.SetComplexityN(static_cast<std::int64_t>(window.steps(6)));
}

void BM_PaperRecursion(benchmark::State& state) {
  const MachineTrace& trace = paper_rate_trace();
  const SmpEstimator estimator(bench::bench_estimator_config());
  const TimeWindow window = window_of_hours(state.range(0));
  const std::size_t steps = window.steps(6);
  for (auto _ : state) {
    const SmpModel model = estimator.estimate(trace, 20, window);
    const TrResult result = SparseTrSolver(model).solve(State::kS1, steps);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<std::int64_t>(steps));
}

void BM_TotalPrediction(benchmark::State& state) {
  const MachineTrace& trace = paper_rate_trace();
  const AvailabilityPredictor predictor(bench::bench_estimator_config());
  const TimeWindow window = window_of_hours(state.range(0));
  for (auto _ : state) {
    const Prediction p =
        predictor.predict(trace, {.target_day = 20, .window = window});
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(static_cast<std::int64_t>(window.steps(6)));
}

}  // namespace

BENCHMARK(BM_QHComputation)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_PaperRecursion)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(BM_TotalPrediction)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

BENCHMARK_MAIN();
