// Ablation A2 — the Eq. 3 sparsity-optimized solver vs the generic dense
// interval-transition solver (paper §5.3).
//
// Both compute the same six first-passage probabilities; the sparse solver
// exploits the 8-element structure of Q/H. google-benchmark reports the
// speedup; equality is asserted on every run. The AbsorptionCurves build the
// prediction service runs on every cache miss (both initial states,
// sparse-lag kernel, bit-identical to the sparse solver) runs at the same
// horizons. `--benchmark_filter='^$'` runs only the equivalence check.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "harness.hpp"

namespace {

using namespace fgcs;

const SmpModel& model_for(std::size_t horizon) {
  static std::map<std::size_t, SmpModel> cache;
  auto it = cache.find(horizon);
  if (it == cache.end()) {
    // Estimate a representative model from a trace at the paper's 6 s
    // sampling, so horizon 6000 corresponds to the 10-hour window of Fig. 4.
    // Horizons beyond a day are benchmarked by re-embedding the estimated
    // Q/H into a wider-horizon model (the pmfs keep their support).
    const std::size_t est_horizon = std::min<std::size_t>(horizon, 6000);
    WorkloadParams params;
    params.sampling_period = 6;
    const MachineTrace trace =
        TraceGenerator(params, 4242).generate("abl2", 20);
    EstimatorConfig config;
    config.training_days = 12;
    const SmpEstimator estimator(config);
    const TimeWindow window{
        .start_of_day = 9 * kSecondsPerHour,
        .length = static_cast<SimTime>(est_horizon) * 6};
    SmpModel estimated = estimator.estimate(trace, 19, window);
    if (horizon > est_horizon) {
      SmpModel wide(kStateCount, horizon);
      for (std::size_t from : {0u, 1u})
        for (std::size_t to = 0; to < kStateCount; ++to) {
          if (to == from || estimated.q(from, to) == 0.0) continue;
          wide.set_q(from, to, estimated.q(from, to));
          const auto pmf = estimated.h_pmf(from, to);
          wide.set_h_pmf(from, to,
                         std::vector<double>(pmf.begin(), pmf.end()));
        }
      estimated = std::move(wide);
    }
    it = cache.emplace(horizon, std::move(estimated)).first;
  }
  return it->second;
}

void BM_SparseSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SmpModel& model = model_for(n);
  const SparseTrSolver solver(model);
  for (auto _ : state) {
    const auto result = solver.solve(State::kS1, n);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}

void BM_CurveBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SmpModel& model = model_for(n);
  for (auto _ : state) {
    const AbsorptionCurves curves(model, n);
    const auto result = curves.result_at(State::kS1, n);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}

void BM_DenseSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SmpModel& model = model_for(n);
  const DenseSmpSolver solver(model);
  for (auto _ : state) {
    const auto fp = solver.first_passage(index_of(State::kS1), n);
    benchmark::DoNotOptimize(fp);
  }
  state.SetComplexityN(state.range(0));
}

void verify_equivalence() {
  for (const std::size_t n : {60u, 240u, 600u}) {
    const SmpModel& model = model_for(n);
    const SparseTrSolver sparse(model);
    const DenseSmpSolver dense(model);
    const auto s = sparse.solve(State::kS1, n);
    const auto fp = dense.first_passage(index_of(State::kS1), n);
    const double dense_tr = 1.0 - (fp[2] + fp[3] + fp[4]);
    const double curves_tr = AbsorptionCurves(model, n)
                                 .result_at(State::kS1, n)
                                 .temporal_reliability;
    if (std::abs(s.temporal_reliability - dense_tr) > 1e-9 ||
        curves_tr != s.temporal_reliability) {
      std::fprintf(stderr, "solver mismatch at n=%zu: %f / %f / %f\n", n,
                   s.temporal_reliability, dense_tr, curves_tr);
      std::abort();
    }
  }
  std::printf(
      "equivalence check: sparse == dense on n in {60,240,600}, "
      "curves bit-identical to sparse\n");
}

}  // namespace

// 6000 = the paper's largest window (10 h at 6 s); 28800 is two days at 6 s.
// The curve build visits only nonzero kernel lags, so it stays far ahead of
// the O(n²) sparse solver at both.
BENCHMARK(BM_SparseSolver)->Arg(60)->Arg(240)->Arg(600)->Arg(6000)->Arg(28800)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_CurveBuild)->Arg(60)->Arg(240)->Arg(600)->Arg(6000)->Arg(28800)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);
BENCHMARK(BM_DenseSolver)->Arg(60)->Arg(240)->Arg(600)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

int main(int argc, char** argv) {
  verify_equivalence();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
