// fgcs_predict — temporal reliability of a recorded machine for a window.
//
//   fgcs_predict --trace FILE --start HH:MM --hours H
//                [--day N]            target day (default: day after history)
//                [--training-days N]  recent same-type days used (default 15)
//                [--init S1|S2]       observed state at submission
//                [--analysis]         also print MTTF and failure-mode split
//
// Batch mode routes many requests through one PredictionService (memoized
// Q/H estimation, thread-pool fan-out) and prints one TR line per request —
// identical values to running the per-call path on each line:
//
//   fgcs_predict --batch FILE [--training-days N] [--threads N] [--metrics]
//
// where each non-empty, non-'#' line of FILE reads
//
//   TRACE_FILE HH:MM HOURS [DAY] [S1|S2]
//
// --metrics appends the process-wide Prometheus-style exposition
// (MetricsRegistry::render_text(), DESIGN.md §8) after the batch report.
//
// Remote mode ships the same batch file to a running fgcs_serve instead of
// predicting in-process (DESIGN.md §9); machines are named over the wire by
// their trace file path exactly as written in the batch file, so against a
// server sharing this filesystem and started with --load-root covering
// those paths the output TR lines are identical:
//
//   fgcs_predict --batch FILE --connect HOST:PORT [--timeout SECONDS]
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "net/client.hpp"

#include "batch_file.hpp"
#include "core/analysis.hpp"
#include "fgcs.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"

namespace {

int run_connect(const fgcs::ArgParser& args) {
  using namespace fgcs;
  const Endpoint endpoint = parse_endpoint(args.get("connect"));
  net::ClientConfig config;
  config.host = endpoint.host;
  config.port = endpoint.port;
  config.request_timeout = args.get_double_or("timeout", 30.0);
  const std::string path = args.get("batch");
  args.check_all_consumed();

  // The batch file is parsed locally for the same reason it is parsed by
  // --batch: per-line defaults (target day = day after the trace's history)
  // come from the trace itself. The wire request then names each machine by
  // the trace *path* as written, which the server resolves on its side.
  const tools::BatchFile batch = tools::load_batch_file(path);
  std::map<const MachineTrace*, std::string> paths;
  for (const auto& [trace_path, trace] : batch.traces)
    paths[&trace] = trace_path;

  std::vector<net::WireRequestItem> items;
  items.reserve(batch.requests.size());
  for (const BatchRequest& request : batch.requests)
    items.push_back(net::WireRequestItem{.machine_key = paths[request.trace],
                                         .request = request.request});

  net::PredictionClient client(config);
  const std::vector<Prediction> predictions = client.predict_batch(items);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const BatchRequest& request = batch.requests[i];
    std::printf("%-12s day %-4lld %-12s TR %.4f\n",
                request.trace->machine_id().c_str(),
                static_cast<long long>(request.request.target_day),
                request.request.window.describe().c_str(),
                predictions[i].temporal_reliability);
  }
  const net::ClientStats& stats = client.stats();
  std::printf("# net: %s:%u, %llu attempts (%llu retries), "
              "%llu server errors\n",
              config.host.c_str(), config.port,
              static_cast<unsigned long long>(stats.attempts),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.server_errors));
  return 0;
}

int run_batch(const fgcs::ArgParser& args) {
  using namespace fgcs;
  const std::string path = args.get("batch");

  ServiceConfig config;
  config.estimator.training_days =
      static_cast<std::size_t>(args.get_int_or("training-days", 15, 0));
  config.max_threads = static_cast<unsigned>(
      args.get_int_or("threads", 0, 0, std::numeric_limits<unsigned>::max()));
  const bool want_metrics = args.has("metrics");
  args.check_all_consumed();

  const tools::BatchFile batch = tools::load_batch_file(path);

  PredictionService service(config);
  const std::vector<Prediction> predictions =
      service.predict_batch(batch.requests);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const BatchRequest& request = batch.requests[i];
    std::printf("%-12s day %-4lld %-12s TR %.4f\n",
                request.trace->machine_id().c_str(),
                static_cast<long long>(request.request.target_day),
                request.request.window.describe().c_str(),
                predictions[i].temporal_reliability);
  }
  const ServiceStats stats = service.stats();
  std::printf("# service: %llu requests, %llu misses, %llu cached, "
              "%.1f ms estimating + %.1f ms solving\n",
              static_cast<unsigned long long>(stats.lookups),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.hits),
              1e3 * stats.estimate_seconds, 1e3 * stats.solve_seconds);
  std::printf("# pool: %u workers (%s), %llu tasks, "
              "queue high-water %llu, %.1f%% busy\n",
              stats.pool.workers,
              stats.pool.started ? "started" : "never started",
              static_cast<unsigned long long>(stats.pool.tasks_executed),
              static_cast<unsigned long long>(stats.pool.queue_depth_high_water),
              100.0 * stats.pool.utilization());
  if (want_metrics) {
    // Dump while `service` is alive so its attachments are still folded in.
    std::printf("\n%s", MetricsRegistry::global().render_text().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgcs;
  try {
    const ArgParser args(argc, argv, {"analysis", "metrics"});
    if (args.has("connect")) return run_connect(args);
    if (args.has("batch")) return run_batch(args);
    const MachineTrace trace = MachineTrace::load_file(args.get("trace"));

    TimeWindow window;
    window.start_of_day = parse_time_of_day(args.get("start"));
    window.length = args.get_int("hours") * kSecondsPerHour;

    EstimatorConfig config;
    config.training_days =
        static_cast<std::size_t>(args.get_int_or("training-days", 15, 0));

    PredictionRequest request;
    request.target_day = args.get_int_or("day", trace.day_count());
    request.window = window;
    if (args.has("init")) {
      const std::string init = args.get("init");
      if (init == "S1") request.initial_state = State::kS1;
      else if (init == "S2") request.initial_state = State::kS2;
      else {
        std::fprintf(stderr, "--init must be S1 or S2\n");
        return 1;
      }
    }
    const bool want_analysis = args.has("analysis");
    args.check_all_consumed();

    const AvailabilityPredictor predictor(config);
    const Prediction p = predictor.predict(trace, request);

    std::printf("machine      : %s\n", trace.machine_id().c_str());
    std::printf("window       : day %lld, %s (%s)\n",
                static_cast<long long>(request.target_day),
                window.describe().c_str(),
                to_string(trace.day_type(request.target_day)));
    std::printf("training days: %zu, initial state %s\n",
                p.training_days_used, to_string(p.initial_state));
    std::printf("TR           : %.4f\n", p.temporal_reliability);
    std::printf("P(S3 cpu)    : %.4f\n", p.p_absorb[0]);
    std::printf("P(S4 memory) : %.4f\n", p.p_absorb[1]);
    std::printf("P(S5 revoked): %.4f\n", p.p_absorb[2]);
    std::printf("cost         : %.2f ms estimate + %.2f ms solve\n",
                1e3 * p.estimate_seconds, 1e3 * p.solve_seconds);

    if (want_analysis) {
      const SmpEstimator estimator(config);
      const SmpModel model =
          estimator.estimate(trace, request.target_day, window);
      const FailureAnalysis analysis =
          analyze_failure(model, p.initial_state, p.steps);
      const double period = static_cast<double>(trace.sampling_period());
      std::printf("\nmean time to failure (capped at window): %.1f minutes\n",
                  analysis.mean_ticks_to_failure * period / 60.0);
      std::printf("dominant outcome: %s\n",
                  analysis.dominant_outcome == State::kS1
                      ? "survival"
                      : to_string(analysis.dominant_outcome));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_predict: %s\n", error.what());
    return 1;
  }
}
