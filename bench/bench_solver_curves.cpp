// Extension — precomputed absorption curves vs per-call Eq. 3 solves.
//
// Three tables:
//
//   cold solve   : building an AbsorptionCurves table at horizon T vs one
//                  SparseTrSolver::solve at the same T. The solver runs the
//                  dense O(T²) recursion; the table visits only the k nonzero
//                  cross-kernel lags, O(T·k), and serves BOTH initial states
//                  at every horizon ≤ T. Side by side: the
//                  estimated model (empirical pmfs, k = observed hold
//                  lengths) and a laplace_alpha = 1 model with no observed
//                  transitions, whose uniform pmfs fill every lag — the
//                  dense worst case, where the build is O(T²) again.
//   warm lookup  : answering a TR query off a built table vs the old warm
//                  path (construct SparseTrSolver — revalidating the model —
//                  and re-run the recursion). Acceptance gate: curves ≥ 4×.
//   fleet probe  : a 1000-machine scheduler placement probe through
//                  PredictionService, cold then warm, with the warm pass
//                  answered entirely from cached Predictions.
//
// All compared paths must produce bit-identical TR values; any divergence
// fails the run.
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "harness.hpp"

using namespace fgcs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Nonzero lags across both cross kernels — the k in the O(T·k) build.
std::size_t cross_kernel_lags(const SmpModel& model) {
  std::size_t k = 0;
  for (const auto& [from, to] : {std::pair{State::kS1, State::kS2},
                                 std::pair{State::kS2, State::kS1}}) {
    if (model.q(index_of(from), index_of(to)) == 0.0) continue;
    for (const double p : model.h_pmf(index_of(from), index_of(to)))
      k += p != 0.0 ? 1 : 0;
  }
  return k;
}

/// Mean seconds per AbsorptionCurves build at `steps`.
double curve_build_seconds(const SmpModel& model, std::size_t steps,
                           int reps, double& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    const AbsorptionCurves curves(model, steps);
    sink += curves.result_at(State::kS1, steps).temporal_reliability;
  }
  return seconds_since(t0) / reps;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "absorption-curve cache: cold build, warm lookup, fleet probe");
  constexpr int kDays = 14;
  const EstimatorConfig estimator_config = bench::bench_estimator_config();
  bool all_identical = true;

  // One representative model: tomorrow's 8:00–11:00 window on a lab machine.
  const std::vector<MachineTrace> one = bench::lab_fleet(1, kDays);
  const TimeWindow window{.start_of_day = 8 * kSecondsPerHour,
                          .length = 3 * kSecondsPerHour};
  const SmpEstimator estimator(estimator_config);
  const SmpModel model =
      estimator.estimate(one[0], one[0].day_count(), window);
  const std::size_t horizon = window.steps(one[0].sampling_period());
  EstimatorConfig dense_config = estimator_config;
  dense_config.laplace_alpha = 1.0;
  const SmpModel dense_model =
      SmpEstimator(dense_config).build_model(TransitionCounts(horizon));

  // --- Cold solve: one table build vs one per-initial-state solve. ---------
  {
    Table table({"steps", "sparse_solve_ms", "build_est_ms", "build_x",
                 "build_dense_ms"});
    for (const std::size_t steps : {180u, 720u, 1440u}) {
      const SparseTrSolver solver(model);
      constexpr int kReps = 20;
      const auto t0 = std::chrono::steady_clock::now();
      double sink = 0.0;
      for (int rep = 0; rep < kReps; ++rep)
        sink += solver.solve(State::kS1, steps).temporal_reliability;
      const double solve_s = seconds_since(t0) / kReps;
      const double build_s = curve_build_seconds(model, steps, kReps, sink);
      const double dense_s =
          curve_build_seconds(dense_model, steps, kReps, sink);
      if (!std::isfinite(sink)) return 1;
      table.add_row({std::to_string(steps), Table::num(1e3 * solve_s),
                     Table::num(1e3 * build_s),
                     Table::num(solve_s / build_s, 2),
                     Table::num(1e3 * dense_s)});
    }
    std::cout << "cold solve (one build tabulates BOTH initial states; "
                 "cross-kernel lags k: estimated "
              << cross_kernel_lags(model) << ", laplace_alpha=1 dense "
              << cross_kernel_lags(dense_model) << "):\n";
    table.print(std::cout);
  }

  // --- Warm lookup: curve read vs construct-and-resolve. -------------------
  double lookup_speedup = 0.0;
  {
    const std::size_t steps = window.steps(one[0].sampling_period());
    const AbsorptionCurves curves(model, steps);
    constexpr int kQueries = 2000;

    // Old warm path: every query constructs a solver (re-running
    // SmpModel::validate) and pays the full recursion.
    const auto t0 = std::chrono::steady_clock::now();
    double sink_old = 0.0;
    for (int q = 0; q < kQueries; ++q) {
      const SparseTrSolver solver(model);
      sink_old += solver
                      .solve(q % 2 == 0 ? State::kS1 : State::kS2,
                             steps - static_cast<std::size_t>(q % 8))
                      .temporal_reliability;
    }
    const double old_s = seconds_since(t0) / kQueries;

    const auto t1 = std::chrono::steady_clock::now();
    double sink_new = 0.0;
    for (int q = 0; q < kQueries; ++q)
      sink_new += curves
                      .result_at(q % 2 == 0 ? State::kS1 : State::kS2,
                                 steps - static_cast<std::size_t>(q % 8))
                      .temporal_reliability;
    const double new_s = seconds_since(t1) / kQueries;

    all_identical = all_identical && sink_old == sink_new;
    lookup_speedup = old_s / new_s;
    Table table({"queries", "construct_solve_us", "curve_lookup_us", "x"});
    table.add_row({std::to_string(kQueries), Table::num(1e6 * old_s),
                   Table::num(1e6 * new_s), Table::num(lookup_speedup, 1)});
    std::cout << "\nwarm lookup (same model, varied init/horizon):\n";
    table.print(std::cout);
  }

  // --- Fleet probe: 1000 machines through the service. ---------------------
  {
    const std::vector<MachineTrace> fleet = bench::lab_fleet(1000, kDays);
    std::vector<BatchRequest> requests;
    requests.reserve(fleet.size());
    for (const MachineTrace& trace : fleet)
      requests.push_back(BatchRequest{
          .trace = &trace,
          .request = {.target_day = trace.day_count(), .window = window}});

    PredictionService service(ServiceConfig{.estimator = estimator_config});
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<Prediction> cold = service.predict_batch(requests);
    const double cold_s = seconds_since(t0);

    constexpr int kWarmReps = 5;
    std::vector<Prediction> warm;
    const auto t1 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kWarmReps; ++rep)
      warm = service.predict_batch(requests);
    const double warm_s = seconds_since(t1) / kWarmReps;

    for (std::size_t i = 0; i < cold.size(); ++i)
      all_identical = all_identical && cold[i].temporal_reliability ==
                                           warm[i].temporal_reliability;

    Table table({"machines", "cold_ms", "warm_ms", "warm_us_per_probe"});
    table.add_row({std::to_string(fleet.size()), Table::num(1e3 * cold_s),
                   Table::num(1e3 * warm_s),
                   Table::num(1e6 * warm_s /
                              static_cast<double>(fleet.size()))});
    std::cout << "\nfleet probe (one window, every machine):\n";
    table.print(std::cout);
  }

  std::cout << "\nTR values identical across compared paths: "
            << (all_identical ? "yes" : "NO") << "\n";
  std::cout << "warm lookup speedup: " << Table::num(lookup_speedup, 1)
            << "x (target >= 4x): "
            << (lookup_speedup >= 4.0 ? "PASS" : "FAIL") << "\n";
  return all_identical && lookup_speedup >= 4.0 ? 0 : 1;
}
