// Order statistics and span arithmetic behind every number the benchmark
// reports. Kept free of the fgcs library so the unit test covers exactly the
// rules the report applies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fgcs::benchmark {

/// Nearest-rank percentile in per-mille (990 = p99): sorted[ceil(pm·n/1000)−1].
/// `sorted` must be ascending; an empty span yields 0.
double percentile(std::span<const double> sorted, int per_mille);

/// Samples ranked above the nearest-rank percentile: n − ceil(pm·n/1000).
std::size_t samples_beyond(std::size_t n, int per_mille);

/// How many equal slices of n samples leave at least ten samples beyond
/// the percentile in each: samples_beyond(n, pm) / 10, within
/// [1, max_slices].
std::size_t supported_slices(std::size_t n, int per_mille,
                             std::size_t max_slices);

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Python's statistics.quantiles(values, n=4) with its default 'exclusive'
/// method — the rule run-to-run spreads are judged by. Needs ≥ 2 values.
Quartiles quartiles(std::vector<double> values);

struct Interval {
  double start = 0;
  double end = 0;
};

/// `span`'s duration minus the part of it its children cover; overlapping
/// children are counted once and parts outside `span` not at all.
double self_time(Interval span, std::vector<Interval> children);

}  // namespace fgcs::benchmark
