// Load generation, sampling and reporting shared by the four workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "spans.hpp"
#include "util/rng.hpp"

namespace fgcs::benchmark {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count or base, printed beside the value
};

/// Everything one measured run of a workload produced.
struct RunResult {
  /// Metrics every workload reports, bounded in BENCHMARK.json.
  std::vector<Metric> end_to_end;
  /// End-to-end numbers printed and written but not bounded: percentiles
  /// that do not repeat within 10% between runs on a shared machine (p95,
  /// p99), numbers only some workloads have (append latency, plans/s, the
  /// SLO rate), and the failure ratio.
  std::vector<Metric> unbounded;
  /// Per-layer metrics; filled by a traced run only.
  std::vector<Metric> per_layer;
  /// Self-time table and layer-separation verdicts of a traced run.
  std::vector<std::string> trace_report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
};

/// One completed op.
struct Completion {
  Clock::time_point at;  ///< when the reply arrived
  double latency_ms = 0;
  std::uint32_t predictions = 0;
};

/// One executed load phase.
struct PhaseLog {
  std::vector<Completion> completions;
  std::vector<double> lateness_ms;  ///< one per attempted op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t predictions = 0;
  Clock::time_point first{};  ///< phase start
  Clock::time_point last{};   ///< last completion

  void merge(const PhaseLog& other);
  double seconds() const;
  std::vector<double> latencies_ms() const;

  /// A latency percentile as the median of that percentile over up to 20
  /// equal time slices of the phase, using only as many slices as leave
  /// ten samples beyond the percentile in each — so a slow spell confined
  /// to a few slices does not move it. With fewer samples it is the
  /// percentile of the whole phase.
  double sliced_percentile(int per_mille) const;
  /// Slices behind sliced_percentile(per_mille).
  std::size_t slices_for(int per_mille) const;

  /// Predictions served per second: the median over up to 20 equal time
  /// slices of at least 200 ops each.
  double prediction_rate() const;
};

/// Executes op `index` and returns the predictions it was served; throws
/// DataError when the call fails. `root` is the op's span id (0 untraced),
/// the parent for any child span the op records.
using Op = std::function<std::size_t(std::size_t index, std::uint64_t root)>;

/// Open loop: op i is due at start + schedule_s[i]. Latency counts from that
/// instant, so a stall is charged to every op it delays; lateness is how
/// late the send was.
PhaseLog run_open_loop(Clock::time_point start,
                       std::span<const double> schedule_s, const Op& op,
                       SpanRecorder* spans, const char* root_name);

/// Closed loop until `deadline`: each op is sent once the previous reply
/// has arrived. Lateness is the generator's own gap between the two.
PhaseLog run_closed_loop(Clock::time_point deadline, const Op& op,
                         SpanRecorder* spans, const char* root_name);

/// Runs each body on its own thread and returns their logs in order; the
/// first exception a body throws is rethrown after all have joined.
std::vector<PhaseLog> run_concurrently(
    const std::vector<std::function<PhaseLog()>>& bodies);

/// Seeded Poisson arrival times for `count` ops at `rate` per second.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count);

/// Uniform sample of up to `capacity` offered items (Algorithm R), seeded.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  static constexpr std::size_t kDrop = static_cast<std::size_t>(-1);

  /// Counts one offered item and returns the slot to store() it in, or
  /// kDrop — so a caller builds only the items that are kept.
  std::size_t admit() {
    ++seen_;
    if (items_.size() < capacity_) return items_.size();
    const auto slot = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(seen_) - 1));
    return slot < capacity_ ? slot : kDrop;
  }

  void store(std::size_t slot, T value) {
    if (slot == items_.size())
      items_.push_back(std::move(value));
    else
      items_[slot] = std::move(value);
  }

  std::vector<T>& items() { return items_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  Rng rng_;
  std::vector<T> items_;
};

/// Spins one thread per CPU until every thread keeps 80% of the pace of a
/// lone thread twice in a row, or `limit_s` passes; returns the seconds it
/// took. On a virtual machine whose vCPUs sat idle for a few seconds, the
/// first second of work on every vCPU at once can run at 1/nproc speed
/// until the host spreads the vCPUs over its cores again. Unwarmed, that
/// second would land in set-up time and in the run's first slices.
double warm_cpus(double limit_s);

/// `seconds` as a clock duration.
Clock::duration duration_of(double seconds);

double seconds_between(Clock::time_point from, Clock::time_point to);
double micros_between(Clock::time_point from, Clock::time_point to);

/// ru_maxrss of this process, MiB.
double peak_rss_mib();
/// Bytes malloc has handed out and not had back, over every arena.
double heap_in_use_bytes();

/// Bucket counts of a histogram in MetricsRegistry::global(), read from its
/// text exposition (upper bounds ascending, +Inf last).
struct HistogramCounts {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> cumulative;
};
HistogramCounts read_histogram(const std::string& prometheus_name);

/// Median of the observations made between two reads, log-interpolated
/// inside its bucket; 0 when nothing was observed.
double histogram_median(const HistogramCounts& before,
                        const HistogramCounts& after);

/// The one-line result: {"correct", "attempted", "failed", "metrics"},
/// metrics being `metrics` by name with value and unit.
std::string result_json(const RunResult& result,
                        const std::vector<Metric>& metrics);

/// Every metric group of `result` as one JSON document (for --json).
std::string full_json(const std::string& workload, std::uint64_t seed,
                      const RunResult& result);

}  // namespace fgcs::benchmark
