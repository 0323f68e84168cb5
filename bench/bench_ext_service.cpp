// Extension — fleet-scale batched prediction through PredictionService.
//
// A placement scheduler probes every machine in the fleet with the same
// window, then probes again with the next job; Trua- and uPredict-style
// systems only pay off when that traffic is amortized. This bench measures,
// across fleet sizes, the throughput of
//
//   per-call : AvailabilityPredictor::predict per request (the seed path)
//   cold     : one predict_batch on an empty cache (thread-pool fan-out)
//   warm     : the same batch again, answered from the memoized cache
//
// and verifies that all three return identical TR values. Acceptance target:
// warm batch ≥ 5× faster than per-call on the 20-machine fleet.
//
// A second table times the second initial state on a warm entry (an S2 query
// on an entry an S1 query filled) against constructing a solver and solving
// S2 directly; target ≥ 4×, TRs bit-identical.
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "harness.hpp"

using namespace fgcs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<BatchRequest> probe_requests(
    const std::vector<MachineTrace>& fleet) {
  // The windows a day's placements probe: morning-to-evening starts, short
  // and long jobs, all anchored on "tomorrow" relative to the history.
  std::vector<BatchRequest> requests;
  for (const MachineTrace& trace : fleet) {
    for (const SimTime start_hr : {6, 8, 10, 12, 14, 16, 18, 20}) {
      for (const SimTime len_hr : {1, 2, 4}) {
        requests.push_back(BatchRequest{
            .trace = &trace,
            .request = {.target_day = trace.day_count(),
                        .window = {.start_of_day = start_hr * kSecondsPerHour,
                                   .length = len_hr * kSecondsPerHour}}});
      }
    }
  }
  return requests;
}

bool identical_trs(const std::vector<Prediction>& a,
                   const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].temporal_reliability != b[i].temporal_reliability) return false;
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "fleet-scale batched prediction: cold vs warm PredictionService");
  Table table({"machines", "requests", "percall_ms", "cold_ms", "warm_ms",
               "cold_x", "warm_x", "warm_hit_rate"});

  constexpr int kDays = 28;
  const EstimatorConfig estimator = bench::bench_estimator_config();
  bool all_identical = true;
  double warm_speedup_20 = 0.0;

  for (const int machines : {1, 20, 200}) {
    const std::vector<MachineTrace> fleet = bench::lab_fleet(machines, kDays);
    const std::vector<BatchRequest> requests = probe_requests(fleet);

    // Seed path: one AvailabilityPredictor::predict per request, serially.
    const AvailabilityPredictor predictor(estimator);
    std::vector<Prediction> percall;
    percall.reserve(requests.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const BatchRequest& request : requests)
      percall.push_back(predictor.predict(*request.trace, request.request));
    const double percall_s = seconds_since(t0);

    PredictionService service(ServiceConfig{.estimator = estimator});
    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<Prediction> cold = service.predict_batch(requests);
    const double cold_s = seconds_since(t1);

    // Warm: repeat the batch; average over a few reps (it is fast).
    constexpr int kWarmReps = 5;
    std::vector<Prediction> warm;
    const auto t2 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kWarmReps; ++rep)
      warm = service.predict_batch(requests);
    const double warm_s = seconds_since(t2) / kWarmReps;

    all_identical = all_identical && identical_trs(percall, cold) &&
                    identical_trs(percall, warm);
    const double warm_speedup = percall_s / warm_s;
    if (machines == 20) warm_speedup_20 = warm_speedup;

    const ServiceStats stats = service.stats();
    const double hit_rate =
        static_cast<double>(stats.hits) / static_cast<double>(stats.lookups);
    table.add_row({std::to_string(machines), std::to_string(requests.size()),
                   Table::num(1e3 * percall_s), Table::num(1e3 * cold_s),
                   Table::num(1e3 * warm_s), Table::num(percall_s / cold_s, 1),
                   Table::num(warm_speedup, 1), Table::pct(hit_rate, 1)});
  }

  table.print(std::cout);

  // Second initial state on a warm entry: the entry was filled by an S1
  // query and is now asked for S2. The miss already solved both initial
  // states from one curve build, so the S2 query is a hit that copies the
  // stored Prediction. Baseline: what an S2 answer costs without the cache —
  // constructing a SparseTrSolver (re-running SmpModel::validate) and
  // running the recursion, against the same models.
  double second_init_speedup = 0.0;
  {
    const std::vector<MachineTrace> fleet = bench::lab_fleet(20, kDays);
    const TimeWindow window{.start_of_day = 8 * kSecondsPerHour,
                            .length = 3 * kSecondsPerHour};
    const SmpEstimator est(estimator);
    std::vector<SmpModel> models;
    std::vector<std::size_t> steps;
    for (const MachineTrace& trace : fleet) {
      models.push_back(est.estimate(trace, trace.day_count(), window));
      steps.push_back(window.steps(trace.sampling_period()));
    }

    constexpr int kReps = 20;
    double old_s = 0.0, new_s = 0.0, sink_old = 0.0, sink_new = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      // Fresh service per rep so every timed S2 query is the first S2
      // lookup of an entry an S1 query filled.
      PredictionService service(ServiceConfig{.estimator = estimator});
      for (const MachineTrace& trace : fleet) {  // fill the entries, untimed
        PredictionRequest request{.target_day = trace.day_count(),
                                  .window = window};
        request.initial_state = State::kS1;
        (void)service.predict(trace, request);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (const MachineTrace& trace : fleet) {
        PredictionRequest request{.target_day = trace.day_count(),
                                  .window = window};
        request.initial_state = State::kS2;
        sink_new += service.predict(trace, request).temporal_reliability;
      }
      new_s += seconds_since(t0);

      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < models.size(); ++i) {
        const SparseTrSolver solver(models[i]);
        sink_old += solver.solve(State::kS2, steps[i]).temporal_reliability;
      }
      old_s += seconds_since(t1);
    }
    all_identical = all_identical && sink_old == sink_new;
    second_init_speedup = old_s / new_s;

    std::cout << "\nsecond initial state on a warm entry (filled by S1, "
                 "asked for S2):\n";
    Table second({"queries", "construct_solve_us", "warm_entry_us", "x"});
    const double q = static_cast<double>(kReps) * 20.0;
    second.add_row({std::to_string(static_cast<int>(q)),
                    Table::num(1e6 * old_s / q), Table::num(1e6 * new_s / q),
                    Table::num(second_init_speedup, 1)});
    second.print(std::cout);
  }

  std::cout << "\nTR values identical across per-call/cold/warm: "
            << (all_identical ? "yes" : "NO") << "\n";
  std::cout << "warm batch speedup at 20 machines: " << Table::num(warm_speedup_20, 1)
            << "x (target >= 5x): "
            << (warm_speedup_20 >= 5.0 ? "PASS" : "FAIL") << "\n";
  std::cout << "second-initial-state speedup vs construct+solve: "
            << Table::num(second_init_speedup, 1) << "x (target >= 4x): "
            << (second_init_speedup >= 4.0 ? "PASS" : "FAIL") << "\n";
  return all_identical && warm_speedup_20 >= 5.0 && second_init_speedup >= 4.0
             ? 0
             : 1;
}
