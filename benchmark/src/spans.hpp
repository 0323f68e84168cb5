// The benchmark's own span recorder. Spans are recorded from fgcs_bench's
// files around calls into each layer's public functions — nothing inside the
// library is instrumented — kept in memory during the run, and written as
// JSONL when it ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fgcs::benchmark {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by every span of one op
  const char* name = "";      ///< a string literal
  double start_us = 0;        ///< microseconds since the recorder's epoch
  double end_us = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh span id, for a parent that must be named before it ends.
  std::uint64_t open() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span under a preallocated id. Thread-safe.
  void record(std::uint64_t id, const char* name, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  /// open() + record() for a span with no children.
  std::uint64_t leaf(const char* name, std::uint64_t parent,
                     std::uint64_t request, Clock::time_point start,
                     Clock::time_point end);

  /// Every span recorded so far, ordered by id.
  std::vector<Span> spans() const;

  /// Writes one JSON object per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Self time (duration minus the part its children cover) of every span,
/// grouped by span name, in microseconds.
std::map<std::string, std::vector<double>> self_times_us(
    const std::vector<Span>& spans);

}  // namespace fgcs::benchmark
