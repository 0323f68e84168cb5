#include "harness.hpp"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <sstream>
#include <thread>

#include "stats.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace fgcs::benchmark {

void PhaseLog::merge(const PhaseLog& other) {
  completions.insert(completions.end(), other.completions.begin(),
                     other.completions.end());
  lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                     other.lateness_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  predictions += other.predictions;
  if (first == Clock::time_point{} ||
      (other.first != Clock::time_point{} && other.first < first))
    first = other.first;
  last = std::max(last, other.last);
}

double PhaseLog::seconds() const { return seconds_between(first, last); }

std::vector<double> PhaseLog::latencies_ms() const {
  std::vector<double> out;
  out.reserve(completions.size());
  for (const Completion& completion : completions)
    out.push_back(completion.latency_ms);
  return out;
}

namespace {

constexpr std::size_t kMaxSlices = 20;

/// Index of the equal time slice of [first, last] that `at` falls in.
std::size_t slice_of(const PhaseLog& log, Clock::time_point at,
                     std::size_t slices) {
  const double share =
      seconds_between(log.first, at) / std::max(log.seconds(), 1e-9);
  return std::min(static_cast<std::size_t>(std::max(share, 0.0) *
                                           static_cast<double>(slices)),
                  slices - 1);
}

}  // namespace

std::size_t PhaseLog::slices_for(int per_mille) const {
  return supported_slices(completions.size(), per_mille, kMaxSlices);
}

double PhaseLog::sliced_percentile(int per_mille) const {
  const std::size_t slices = slices_for(per_mille);
  std::vector<std::vector<double>> sliced(slices);
  for (const Completion& completion : completions)
    sliced[slice_of(*this, completion.at, slices)].push_back(
        completion.latency_ms);
  std::vector<double> per_slice;
  for (std::vector<double>& values : sliced) {
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());
    per_slice.push_back(percentile(values, per_mille));
  }
  return median(per_slice);
}

double PhaseLog::prediction_rate() const {
  // At least 200 ops a slice, so whole ops per slice do not quantize it.
  const std::size_t slices =
      std::clamp<std::size_t>(completions.size() / 200, 1, kMaxSlices);
  const double width = seconds() / static_cast<double>(slices);
  if (!(width > 0)) return 0;
  std::vector<double> served(slices, 0.0);
  for (const Completion& completion : completions)
    served[slice_of(*this, completion.at, slices)] += completion.predictions;
  for (double& value : served) value /= width;
  return median(served);
}

namespace {

/// Runs one op and books its outcome; `from` is where its latency counts.
void execute(PhaseLog& log, const Op& op, std::size_t index,
             Clock::time_point from, SpanRecorder* spans,
             const char* root_name) {
  const std::uint64_t root = spans != nullptr ? spans->open() : 0;
  ++log.attempted;
  try {
    const std::size_t served = op(index, root);
    const Clock::time_point done = Clock::now();
    log.predictions += served;
    log.completions.push_back(
        {done, std::chrono::duration<double, std::milli>(done - from).count(),
         static_cast<std::uint32_t>(served)});
    log.last = done;
    if (spans != nullptr) spans->record(root, root_name, 0, root, from, done);
  } catch (const DataError&) {
    ++log.failed;
    log.last = Clock::now();
  }
}

}  // namespace

PhaseLog run_open_loop(Clock::time_point start,
                       std::span<const double> schedule_s, const Op& op,
                       SpanRecorder* spans, const char* root_name) {
  // A thread that sleeps right up to each send is woken 50 µs late by the
  // default timer slack and, on a virtual machine whose idle vCPU the host
  // has descheduled, up to milliseconds late. No timer slack, and spinning
  // through the last millisecond, keep the lateness the generator's own.
  prctl(PR_SET_TIMERSLACK, 1UL);
  constexpr auto kSpin = std::chrono::milliseconds(1);
  PhaseLog log;
  log.first = start;
  log.completions.reserve(schedule_s.size());
  log.lateness_ms.reserve(schedule_s.size());
  for (std::size_t i = 0; i < schedule_s.size(); ++i) {
    const Clock::time_point due = start + duration_of(schedule_s[i]);
    if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
    Clock::time_point send = Clock::now();
    while (send < due) send = Clock::now();
    log.lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(send - due).count());
    execute(log, op, i, due, spans, root_name);
  }
  return log;
}

PhaseLog run_closed_loop(Clock::time_point deadline, const Op& op,
                         SpanRecorder* spans, const char* root_name) {
  PhaseLog log;
  log.first = Clock::now();
  Clock::time_point previous = log.first;
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point send = Clock::now();
    if (send >= deadline) break;
    log.lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(send - previous).count());
    execute(log, op, i, send, spans, root_name);
    previous = Clock::now();
  }
  return log;
}

std::vector<PhaseLog> run_concurrently(
    const std::vector<std::function<PhaseLog()>>& bodies) {
  std::vector<PhaseLog> logs(bodies.size());
  std::vector<std::exception_ptr> errors(bodies.size());
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i)
    threads.emplace_back([&, i] {
      try {
        logs[i] = bodies[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return logs;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count) {
  Rng rng(seed);
  std::vector<double> schedule(count);
  double clock = 0;
  for (double& due : schedule) {
    clock += rng.exponential(1.0 / rate);
    due = clock;
  }
  return schedule;
}

namespace {

/// Spin-loop passes the slowest of `threads` spinning threads completes in
/// 50 ms.
std::uint64_t spin_round(unsigned threads) {
  std::vector<std::uint64_t> passes(threads);
  const Clock::time_point end = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t)
    spinners.emplace_back([&passes, t, end] {
      volatile double x = 1;
      std::uint64_t n = 0;
      for (; Clock::now() < end; ++n)
        for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
      passes[t] = n;
    });
  for (std::thread& spinner : spinners) spinner.join();
  return *std::min_element(passes.begin(), passes.end());
}

}  // namespace

double warm_cpus(double limit_s) {
  const Clock::time_point start = Clock::now();
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const double alone = static_cast<double>(spin_round(1));
  for (int in_pace = 0;
       in_pace < 2 && seconds_between(start, Clock::now()) < limit_s;)
    in_pace = static_cast<double>(spin_round(cpus)) >= 0.8 * alone
                  ? in_pace + 1
                  : 0;
  return seconds_between(start, Clock::now());
}

Clock::duration duration_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

HistogramCounts read_histogram(const std::string& prometheus_name) {
  HistogramCounts counts;
  std::istringstream text(MetricsRegistry::global().render_text());
  const std::string prefix = prometheus_name + "_bucket{le=\"";
  for (std::string line; std::getline(text, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string bound = line.substr(prefix.size(), close - prefix.size());
    counts.upper_bounds.push_back(bound == "+Inf" ? INFINITY
                                                  : std::stod(bound));
    counts.cumulative.push_back(std::stoull(line.substr(close + 3)));
  }
  return counts;
}

double histogram_median(const HistogramCounts& before,
                        const HistogramCounts& after) {
  const std::size_t buckets = after.cumulative.size();
  const auto observed = [&](std::size_t i) {
    return after.cumulative[i] -
           (i < before.cumulative.size() ? before.cumulative[i] : 0);
  };
  if (buckets == 0 || observed(buckets - 1) == 0) return 0;
  const double half = static_cast<double>(observed(buckets - 1)) / 2;
  for (std::size_t i = 0; i < buckets; ++i) {
    if (static_cast<double>(observed(i)) < half) continue;
    const double below = i == 0 ? 0 : static_cast<double>(observed(i - 1));
    const double upper = std::isinf(after.upper_bounds[i])
                             ? after.upper_bounds[i - 1] * 10
                             : after.upper_bounds[i];
    const double lower = i == 0 ? upper / 10 : after.upper_bounds[i - 1];
    const double share =
        (half - below) / (static_cast<double>(observed(i)) - below);
    return lower * std::pow(upper / lower, share);
  }
  return 0;
}

namespace {

/// A number as JSON, with every digit needed to read it back exactly.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer),
                                          value);
  return error == std::errc{} ? std::string(buffer, end) : "null";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics,
                           bool with_notes) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    out += (i ? ", " : "") + json_string(metric.name) +
           ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (with_notes && !metric.note.empty())
      out += ", \"note\": " + json_string(metric.note);
    out += "}";
  }
  return out + "}";
}

}  // namespace

std::string result_json(const RunResult& result,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") +
         (result.check_failures.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_object(metrics, false) + "}";
}

std::string full_json(const std::string& workload, std::uint64_t seed,
                      const RunResult& result) {
  std::string failures = "[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i)
    failures += (i ? ", " : "") + json_string(result.check_failures[i]);
  failures += "]";
  return "{\"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"check_failures\": " + failures +
         ",\n \"end_to_end\": " + metrics_object(result.end_to_end, true) +
         ",\n \"unbounded\": " +
         metrics_object(result.unbounded, true) +
         ",\n \"per_layer\": " + metrics_object(result.per_layer, true) +
         "}\n";
}

}  // namespace fgcs::benchmark
