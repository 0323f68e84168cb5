// Ablation A8 — the weekday/weekend training split (paper §4.2).
//
// The paper trains on "the most recent N weekdays (weekends)" matching the
// target day's type. This ablation quantifies that design choice: predicting
// weekend windows from (a) same-type days per the paper, (b) all recent days
// regardless of type, and (c) opposite-type days only.
#include <iostream>

#include "harness.hpp"

using namespace fgcs;

namespace {

std::vector<std::int64_t> last_n(std::vector<std::int64_t> days, std::size_t n) {
  if (days.size() > n)
    days.erase(days.begin(), days.end() - static_cast<std::ptrdiff_t>(n));
  return days;
}

}  // namespace

int main() {
  const std::vector<MachineTrace> fleet = bench::lab_fleet(4);
  const EstimatorConfig config = bench::bench_estimator_config();
  const AvailabilityPredictor predictor(config);
  const StateClassifier classifier(config.thresholds, bench::kPeriod);

  for (const DayType target_type : {DayType::kWeekend, DayType::kWeekday}) {
    const DayType other = target_type == DayType::kWeekday
                              ? DayType::kWeekend
                              : DayType::kWeekday;
    print_banner(std::cout, std::string("A8 — predicting ") +
                                to_string(target_type) +
                                " windows from different training pools");
    Table table({"training pool", "avg_err", "max_err", "windows"});

    struct Pool {
      const char* label;
      DayType type;
      bool any_type;
    };
    const Pool pools[] = {
        {"same-type days (paper rule)", target_type, false},
        {"any recent days", target_type, true},
        {"opposite-type days", other, false},
    };
    for (const Pool& pool : pools) {
      RunningStats errors;
      for (const SimTime start_hr : {6, 10, 14, 18}) {
        for (const SimTime len_hr : {2, 4, 8}) {
          const TimeWindow window{.start_of_day = start_hr * kSecondsPerHour,
                                  .length = len_hr * kSecondsPerHour};
          for (const MachineTrace& trace : fleet) {
            const auto split = trace.day_count() / 2;
            const auto test_days =
                trace.days_of_type(target_type, split, trace.day_count());
            if (test_days.empty()) continue;

            std::vector<std::int64_t> training;
            if (pool.any_type) {
              for (std::int64_t d = 0; d < split; ++d)
                if (trace.window_in_range(d, window)) training.push_back(d);
            } else {
              for (const std::int64_t d :
                   trace.days_of_type(pool.type, 0, split))
                if (trace.window_in_range(d, window)) training.push_back(d);
            }
            training = last_n(std::move(training), config.training_days);
            if (training.empty()) continue;

            // The served path over an explicit training-day list, from
            // the majority initial state.
            const double predicted = predictor.answer(trace, training, window)
                                         .for_request({})
                                         .temporal_reliability;
            const EmpiricalTr emp =
                empirical_tr(trace, test_days, window, classifier);
            if (!emp.tr || *emp.tr <= 0.0) continue;
            errors.add(relative_error(predicted, *emp.tr));
          }
        }
      }
      if (errors.empty()) continue;
      table.add_row({pool.label, Table::pct(errors.mean()),
                     Table::pct(errors.max()), std::to_string(errors.count())});
    }
    table.print(std::cout);
  }
  std::cout << "(the paper's same-type rule should win whenever weekday and "
               "weekend patterns differ — which is the testbed's defining "
               "feature)\n";
  return 0;
}
