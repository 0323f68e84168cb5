// Persistent thread pool — the execution substrate under parallel_for and
// every fan-out in the serving stack.
//
// Workers are spawned once (lazily, on first parallel work) and live for the
// pool's lifetime. They take tasks from one mutex-guarded FIFO queue and park
// on one condition variable when it is empty, so tasks start in submission
// order and, under a backlog, the oldest task runs first. Load balancing is
// for_each_index's job, not the queue's: a loop's helpers claim small chunks
// from one shared counter, so any idle worker that picks up a helper joins
// the range, and one slow index only delays its chunk.
//
// for_each_index (the engine behind parallel_for) lets the *calling* thread
// participate: the caller claims and runs chunks alongside the pool's
// workers, which is what makes nested parallel loops deadlock-free — a worker
// whose task runs an inner loop drains that loop itself even when every other
// worker is busy. The first exception thrown by the body is captured, the
// remaining chunks are abandoned, and the exception is rethrown on the caller
// after in-flight chunks finish.
//
// Sizing: a default-constructed pool targets hardware_concurrency workers.
// The process-wide default_pool() additionally honors one environment knob,
// read once at first use: FGCS_THREADS=N pins the worker count exactly
// (useful to force parallelism on single-core CI boxes, or to pin it down).
// Workers are only ever started when a call actually goes parallel; purely
// serial programs stay single-threaded.
//
// Observability: PoolStats snapshots tasks submitted/executed, the
// queue-depth high-water mark, and cumulative worker busy time; utilization()
// relates busy time to wall time since the workers started. The snapshot is
// wired into ServiceStats so serving binaries can report it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/metrics.hpp"

namespace fgcs {

/// Monotonic pool counters; snapshot via ThreadPool::stats().
struct PoolStats {
  unsigned workers = 0;             ///< worker threads the pool targets
  bool started = false;             ///< workers actually spawned yet?
  std::uint64_t tasks_submitted = 0;///< tasks enqueued (submit + loop helpers)
  std::uint64_t tasks_executed = 0; ///< tasks a worker finished running
  /// Always 0: the one FIFO queue has nothing to steal from. Kept because
  /// the serving benchmark still reports a per-layer `pool.steals`.
  std::uint64_t steals = 0;
  std::uint64_t parallel_fors = 0;  ///< for_each_index calls that went wide
  std::uint64_t queue_depth_high_water = 0;  ///< max tasks queued at once
  double busy_seconds = 0.0;        ///< cumulative worker time spent in tasks
  double wall_seconds = 0.0;        ///< wall time since the workers started

  /// Fraction of worker capacity spent running tasks since start; 0 when the
  /// workers have not started.
  double utilization() const;
};

/// Reads an FGCS_THREADS value: a string of decimal digits in [1, 512].
/// Anything else — null, empty, a sign, whitespace, trailing text, zero or
/// out of range — gives `fallback`.
unsigned parse_thread_count(const char* text, unsigned fallback);

class ThreadPool {
 public:
  /// `workers == 0` targets hardware_concurrency (min 1). Workers are not
  /// spawned until the first task or parallel loop needs them.
  explicit ThreadPool(unsigned workers = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads this pool targets (spawned lazily).
  unsigned worker_count() const { return worker_target_; }

  /// Enqueues `fn` and returns a future for its result; exceptions thrown by
  /// `fn` surface on future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs body(i) for i in [0, count) across the pool, the calling thread
  /// included; returns when every index has run. `max_concurrency` caps how
  /// many threads work on the range (0 = all workers); 1 runs the serial
  /// loop inline in index order. Safe to call from inside a pool task
  /// (nested loops cannot deadlock: the caller works the range itself).
  /// The first exception from `body` is rethrown after the range settles.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body,
                      unsigned max_concurrency = 0);

  PoolStats stats() const;

  /// Reports this pool's counters into `registry` under the `pool.*` names
  /// (DESIGN.md §8) via callback attachments — the worker hot path is
  /// untouched; values are read only at render time. Idempotent; the
  /// attachments detach when the pool is destroyed. default_pool() calls
  /// this on the global registry automatically.
  void attach_metrics(MetricsRegistry& registry);

  /// The process-wide pool parallel_for runs on. Created on first use, sized
  /// by hardware_concurrency unless FGCS_THREADS pins it, and
  /// shut down cleanly at static destruction.
  static ThreadPool& default_pool();

 private:
  void enqueue(std::function<void()> task);
  void ensure_started();
  void worker_main();

  unsigned worker_target_;
  std::vector<std::thread> threads_;

  std::mutex start_mutex_;
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_time_{};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by queue_mutex_
  bool shutdown_ = false;                    // guarded by queue_mutex_

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> high_water_{0};
  std::atomic<std::uint64_t> busy_nanos_{0};

  std::mutex metrics_mutex_;
  std::vector<MetricsAttachment> metrics_attachments_;  // guarded by above
};

}  // namespace fgcs
