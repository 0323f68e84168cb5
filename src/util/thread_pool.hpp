// Persistent work-stealing thread pool — the execution substrate under
// parallel_for and every fan-out in the serving stack.
//
// The original parallel_for created and joined fresh std::threads on every
// call, so the hottest serving path (PredictionService::predict_batch, probed
// once per job placement) paid thread spawn/teardown per batch, and static
// chunking stalled whole chunks behind one slow index. ThreadPool fixes both:
// workers are spawned once (lazily, on first parallel work) and live for the
// pool's lifetime, and index ranges are claimed in small dynamic chunks so a
// cache miss on one index only delays its chunk, not a fixed 1/Nth of the
// range.
//
// Structure: one deque of tasks per worker, each guarded by its own mutex.
// submit() pushes to the calling worker's own deque (when called from inside
// the pool) or round-robins across workers; an idle worker first drains its
// own deque (LIFO, for locality), then steals the oldest task from a sibling
// (FIFO, for fairness). Sleeping workers park on a condition variable and are
// woken per submission. All shared state is guarded by mutexes or atomics —
// the pool is TSan-clean by construction, and the TSan CI job runs its tests.
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
// Observability: PoolStats snapshots tasks submitted/executed, steals, the
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
  std::uint64_t steals = 0;         ///< tasks taken from a sibling's deque
  std::uint64_t parallel_fors = 0;  ///< for_each_index calls that went wide
  std::uint64_t queue_depth_high_water = 0;  ///< max tasks queued at once
  double busy_seconds = 0.0;        ///< cumulative worker time spent in tasks
  double wall_seconds = 0.0;        ///< wall time since the workers started

  /// Fraction of worker capacity spent running tasks since start; 0 when the
  /// workers have not started.
  double utilization() const;
};

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
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  void ensure_started();
  void worker_main(std::size_t index);
  /// Pops from the worker's own deque, stealing from siblings when empty.
  std::function<void()> take_task(std::size_t index);

  unsigned worker_target_;
  std::unique_ptr<Worker[]> queues_;
  std::vector<std::thread> threads_;

  std::mutex start_mutex_;
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_time_{};

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool shutdown_ = false;          // guarded by wake_mutex_
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> round_robin_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> high_water_{0};
  std::atomic<std::uint64_t> busy_nanos_{0};

  std::mutex metrics_mutex_;
  std::vector<MetricsAttachment> metrics_attachments_;  // guarded by above
};

}  // namespace fgcs
