// fgcs_bench — runs one benchmark workload against the fgcs serving stack
// and prints every metric by name with its unit. The last line of standard
// output is the machine-readable result.
//
//   fgcs_bench --workload NAME --seed S [--seconds T] [--trace FILE]
//              [--repeat N] [--json OUT]
//
// --trace FILE reruns the workload with the span recorder on, writes the
//   spans to FILE as JSONL, reports per-layer metrics and self times, and
//   the tracing overhead (traced minus untraced) of each end-to-end metric.
//   The untraced run and the traced rerun each take half of --seconds.
// --repeat N measures N times (seeds S..S+N-1) and reports each metric's
//   median, quartiles and (max-min)/median.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "serving.hpp"
#include "stats.hpp"

namespace fgcs::benchmark {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds) {
  if (name == "warm_read") return make_warm_read(seed);
  if (name == "cold_probe") return make_cold_probe(seed);
  if (name == "ingest_mixed") return make_ingest_mixed(seed, seconds);
  if (name == "sharded_plan") return make_sharded_plan(seed);
  return nullptr;
}

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Longest the CPU warm-up before the first set-up may take.
constexpr double kWarmLimitSeconds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  std::string trace_path;
  int repeat = 1;
  std::string json_path;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "fgcs_bench: %s\nusage: fgcs_bench --workload "
               "warm_read|cold_probe|ingest_mixed|sharded_plan --seed S "
               "[--seconds T] [--trace FILE] [--repeat N] [--json OUT]\n",
               message);
  return 2;
}

/// Builds the workload kSetups times (each timed from nothing: fleet
/// generation, server start, cache warm-up) and measures the last one.
RunResult measure(const Options& options, std::uint64_t seed,
                  double seconds, SpanRecorder* spans) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const int setups = spans != nullptr ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = make_workload(options.workload, seed, seconds);
    workload->setup();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  RunResult result = workload->run(seconds, spans);
  result.end_to_end.insert(
      result.end_to_end.begin(),
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"});
  result.end_to_end.push_back(
      {"peak_rss_mb", peak_rss_mib(), "MiB", "ru_maxrss of the process"});
  result.unbounded.push_back(
      {"failed_ops_ratio",
       static_cast<double>(result.failed) /
           static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
       "ratio",
       std::to_string(result.failed) + " failed of " +
           std::to_string(result.attempted) + " attempted"});
  if (result.failed != 0)
    result.check_failures.push_back(std::to_string(result.failed) +
                                    " ops failed");
  return result;
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", heading);
  for (const Metric& metric : metrics)
    std::printf("  %-32s %16.6f %-9s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
}

void print_report(const Options& options, std::uint64_t seed,
                  double seconds, const RunResult& result) {
  std::printf("== %s  seed=%llu  seconds=%g\n", options.workload.c_str(),
              static_cast<unsigned long long>(seed), seconds);
  print_metrics("end-to-end", result.end_to_end);
  print_metrics("end-to-end, unbounded", result.unbounded);
  print_metrics("per-layer (traced run)", result.per_layer);
  if (!result.trace_report.empty()) {
    std::printf("self time (traced run, replayed layers per sampled op)\n");
    for (const std::string& line : result.trace_report)
      std::printf("  %s\n", line.c_str());
  }
  if (result.check_failures.empty()) {
    std::printf("checks: PASS\n");
  } else {
    for (const std::string& failure : result.check_failures)
      std::printf("checks: FAIL %s\n", failure.c_str());
  }
}

/// Median, quartiles and (max-min)/median of each end-to-end metric over
/// the repeats; returns the medians as one result.
RunResult spread_report(const std::vector<RunResult>& runs) {
  RunResult combined = runs.front();
  std::printf("spread over %zu runs\n  %-24s %14s %14s %14s %10s %10s\n",
              runs.size(), "metric", "median", "q1", "q3", "iqr/med",
              "range/med");
  for (std::size_t m = 0; m < combined.end_to_end.size(); ++m) {
    std::vector<double> values;
    for (const RunResult& run : runs) values.push_back(run.end_to_end[m].value);
    const Quartiles q = quartiles(values);
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    std::printf("  %-24s %14.6f %14.6f %14.6f %10.4f %10.4f\n",
                combined.end_to_end[m].name.c_str(), q.median, q.q1, q.q3,
                (q.q3 - q.q1) / q.median, (*hi - *lo) / q.median);
    combined.end_to_end[m].value = q.median;
    combined.end_to_end[m].note = "median of " + std::to_string(runs.size());
  }
  for (const RunResult& run : runs) {
    combined.check_failures.insert(combined.check_failures.end(),
                                   run.check_failures.begin(),
                                   run.check_failures.end());
    if (&run != &runs.front()) {
      combined.attempted += run.attempted;
      combined.failed += run.failed;
    }
  }
  return combined;
}

int run(const Options& options) {
  std::printf("cpu warm-up: %.3f s\n", warm_cpus(kWarmLimitSeconds));
  const double seconds =
      options.trace_path.empty() ? options.seconds : options.seconds / 2;
  std::vector<RunResult> runs;
  for (int r = 0; r < options.repeat; ++r) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(r);
    runs.push_back(measure(options, seed, seconds, nullptr));
    print_report(options, seed, seconds, runs.back());
  }
  RunResult result =
      runs.size() > 1 ? spread_report(runs) : std::move(runs.front());

  if (!options.trace_path.empty()) {
    SpanRecorder spans;
    RunResult traced = measure(options, options.seed, seconds, &spans);
    std::printf("-- traced rerun\n");
    print_report(options, options.seed, seconds, traced);
    std::printf("tracing overhead (traced - untraced)\n");
    for (std::size_t m = 0; m < result.end_to_end.size(); ++m)
      std::printf("  %-32s %+16.6f %s\n", result.end_to_end[m].name.c_str(),
                  traced.end_to_end[m].value - result.end_to_end[m].value,
                  result.end_to_end[m].unit.c_str());
    if (!spans.write_jsonl(options.trace_path))
      traced.check_failures.push_back("cannot write " + options.trace_path);
    result.per_layer = traced.per_layer;
    result.trace_report = traced.trace_report;
    result.check_failures.insert(result.check_failures.end(),
                                 traced.check_failures.begin(),
                                 traced.check_failures.end());
  }

  if (!options.json_path.empty()) {
    std::ofstream json(options.json_path);
    json << full_json(options.workload, options.seed, result);
    if (!json) result.check_failures.push_back("cannot write " + options.json_path);
  }
  std::printf("%s\n",
              result_json(result, options.trace_path.empty()
                                      ? result.end_to_end
                                      : result.per_layer)
                  .c_str());
  return result.check_failures.empty() ? 0 : 1;
}

}  // namespace

}  // namespace fgcs::benchmark

int main(int argc, char** argv) {
  using fgcs::benchmark::usage;
  fgcs::benchmark::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace_path = value;
      else if (flag == "--repeat") options.repeat = std::stoi(value);
      else if (flag == "--json") options.json_path = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!fgcs::benchmark::make_workload(options.workload, options.seed,
                                      options.seconds))
    return usage("unknown workload");
  if (!(options.seconds > 0) || options.repeat < 1)
    return usage("--seconds must be > 0 and --repeat >= 1");
  // The load shape the benchmark is defined for: two pool workers beside
  // the reactors and at most two client threads, on a 4-core machine.
  setenv("FGCS_THREADS", "2", 1);
  try {
    return fgcs::benchmark::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_bench: %s\n", error.what());
    return 1;
  }
}
