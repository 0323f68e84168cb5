// fgcs_eval — accuracy report for a recorded trace.
//
//   fgcs_eval --trace FILE [--split 0.5] [--training-days 15]
//
// Splits the trace into training/test halves and reports, per window length,
// the relative error of the SMP-predicted TR against the empirical TR over
// the test days (the paper's Fig. 5 protocol), with a Wilson 95% interval on
// the empirical TR so model error can be separated from sampling noise.
#include <cstdio>
#include <iostream>

#include "core/analysis.hpp"
#include "fgcs.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace fgcs;
  try {
    const ArgParser args(argc, argv);
    const MachineTrace trace = MachineTrace::load_file(args.get("trace"));
    const double split = args.get_double_or("split", 0.5);
    EstimatorConfig config;
    config.training_days =
        static_cast<std::size_t>(args.get_int_or("training-days", 15, 0));
    args.check_all_consumed();

    if (split <= 0.0 || split >= 1.0) {
      std::fprintf(stderr, "--split must be in (0, 1)\n");
      return 1;
    }

    const AvailabilityPredictor predictor(config);
    const StateClassifier classifier(config.thresholds, trace.sampling_period());
    const auto split_day =
        static_cast<std::int64_t>(split * static_cast<double>(trace.day_count()));

    for (const DayType type : {DayType::kWeekday, DayType::kWeekend}) {
      print_banner(std::cout, std::string("accuracy on ") + to_string(type) +
                                  "s — " + trace.machine_id());
      Table table({"window_len_hr", "avg_err", "max_err", "in_95ci", "windows"});
      for (SimTime len_hr = 1; len_hr <= 10; ++len_hr) {
        RunningStats errors;
        std::size_t in_ci = 0, total = 0;
        for (SimTime start_hr = 0; start_hr < 24; ++start_hr) {
          const TimeWindow window{.start_of_day = start_hr * kSecondsPerHour,
                                  .length = len_hr * kSecondsPerHour};
          const auto test_days =
              trace.days_of_type(type, split_day, trace.day_count());
          if (test_days.empty()) continue;
          Prediction p;
          try {
            p = predictor.predict(
                trace, {.target_day = test_days.front(), .window = window});
          } catch (const PreconditionError&) {
            continue;
          } catch (const DataError&) {
            continue;  // no training day of the target's type holds it
          }
          const EmpiricalTr emp =
              empirical_tr(trace, test_days, window, classifier);
          if (!emp.tr || *emp.tr <= 0.0) continue;
          errors.add(relative_error(p.temporal_reliability, *emp.tr));
          const ConfidenceInterval ci =
              wilson_interval(emp.surviving_days, emp.eligible_days);
          ++total;
          if (ci.contains(p.temporal_reliability)) ++in_ci;
        }
        if (errors.empty()) continue;
        table.add_row({std::to_string(len_hr), Table::pct(errors.mean()),
                       Table::pct(errors.max()),
                       std::to_string(in_ci) + "/" + std::to_string(total),
                       std::to_string(errors.count())});
      }
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_eval: %s\n", error.what());
    return 1;
  }
}
