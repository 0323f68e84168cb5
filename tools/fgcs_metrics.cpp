// fgcs_metrics — run a prediction workload and dump the process-wide
// Prometheus-style metrics exposition (MetricsRegistry::render_text(),
// DESIGN.md §8).
//
//   fgcs_metrics --batch FILE [--training-days N] [--threads N]
//       serve a fgcs_predict-style request file through a PredictionService
//
//   fgcs_metrics [--machines N] [--days D] [--seed S] [--hours H]
//                [--repeat R]
//       no trace files needed: generate a synthetic fleet in memory, probe
//       every machine at a grid of windows R times (first pass cold, rest
//       warm), and report what the metrics layer saw
//
// Only the exposition goes to stdout (pipe it to a file or a scrape
// endpoint); the one-line workload summary goes to stderr. Works with
// FGCS_TRACE_FILE and FGCS_FAILPOINTS like every fgcs binary.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "batch_file.hpp"
#include "core/prediction_service.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "workload/trace_generator.hpp"

namespace {

std::vector<fgcs::BatchRequest> synthetic_requests(
    const std::vector<fgcs::MachineTrace>& fleet, std::int64_t hours) {
  using namespace fgcs;
  // Same-shape probes a scheduler would issue: every machine, a spread of
  // start times, the requested duration.
  std::vector<BatchRequest> requests;
  for (const MachineTrace& trace : fleet) {
    for (const SimTime start_hour : {1, 9, 14, 20}) {
      PredictionRequest request;
      request.target_day = trace.day_count();
      request.window.start_of_day = start_hour * kSecondsPerHour;
      request.window.length = hours * kSecondsPerHour;
      requests.push_back(BatchRequest{.trace = &trace, .request = request});
    }
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgcs;
  try {
    const ArgParser args(argc, argv, {});
    ServiceConfig config;
    config.estimator.training_days =
        static_cast<std::size_t>(args.get_int_or("training-days", 15, 0));
    config.max_threads = static_cast<unsigned>(
        args.get_int_or("threads", 0, 0, std::numeric_limits<unsigned>::max()));

    std::size_t served = 0;
    PredictionService service(config);
    if (args.has("batch")) {
      const std::string path = args.get("batch");
      args.check_all_consumed();
      const tools::BatchFile batch = tools::load_batch_file(path);
      service.predict_batch(batch.requests);
      served = batch.requests.size();
    } else {
      const int machines = args.get_int_or("machines", 8);
      const int days = args.get_int_or("days", 20);
      const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 7));
      const std::int64_t hours = args.get_int_or("hours", 3);
      const int repeat = args.get_int_or("repeat", 2);
      args.check_all_consumed();

      WorkloadParams params;
      params.sampling_period = 60;  // minute ticks: fast, same state patterns
      const std::vector<MachineTrace> fleet =
          generate_fleet(params, seed, machines, days, "metrics");
      const std::vector<BatchRequest> requests =
          synthetic_requests(fleet, hours);
      for (int r = 0; r < repeat; ++r) service.predict_batch(requests);
      served = requests.size() * static_cast<std::size_t>(repeat);
    }

    std::fprintf(stderr, "# fgcs_metrics: served %zu requests\n", served);
    // Render while `service` is alive so its attachments are folded in.
    std::fputs(MetricsRegistry::global().render_text().c_str(), stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_metrics: %s\n", error.what());
    return 1;
  }
}
