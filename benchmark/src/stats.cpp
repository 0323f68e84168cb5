#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace fgcs::benchmark {

namespace {

/// ceil(pm·n/1000) in integers, so p99 of 1000 samples is rank 990 exactly.
std::size_t nearest_rank(std::size_t n, int per_mille) {
  const auto pm = static_cast<std::size_t>(per_mille);
  return (pm * n + 999) / 1000;
}

}  // namespace

double percentile(std::span<const double> sorted, int per_mille) {
  if (sorted.empty()) return 0;
  const std::size_t rank = nearest_rank(sorted.size(), per_mille);
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::size_t samples_beyond(std::size_t n, int per_mille) {
  return n - std::min(n, nearest_rank(n, per_mille));
}

std::size_t supported_slices(std::size_t n, int per_mille,
                             std::size_t max_slices) {
  return std::clamp<std::size_t>(samples_beyond(n, per_mille) / 10, 1,
                                 max_slices);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2)
    throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double self_time(Interval span, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, span.start);
    child.end = std::min(child.end, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double reach = span.start;
  for (const Interval& child : children) {
    if (child.end <= reach || child.end <= child.start) continue;
    covered += child.end - std::max(child.start, reach);
    reach = child.end;
  }
  return (span.end - span.start) - covered;
}

}  // namespace fgcs::benchmark
