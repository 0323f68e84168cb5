#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace fgcs {

namespace {

/// The pool (and worker slot) the current thread belongs to, so submissions
/// from inside a task land on the submitter's own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

void fetch_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t previous = target.load(std::memory_order_relaxed);
  while (previous < value &&
         !target.compare_exchange_weak(previous, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Environment knob in [1, 512]; `fallback` when unset or unparsable.
unsigned env_thread_count(const char* name, unsigned fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || value == 0) return fallback;
  return static_cast<unsigned>(std::min<unsigned long>(value, 512));
}

}  // namespace

double PoolStats::utilization() const {
  if (!started || workers == 0 || wall_seconds <= 0.0) return 0.0;
  return busy_seconds / (wall_seconds * static_cast<double>(workers));
}

ThreadPool::ThreadPool(unsigned workers)
    : worker_target_(workers == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : workers),
      queues_(std::make_unique<Worker[]>(worker_target_)) {}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::ensure_started() {
  if (started_.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock(start_mutex_);
  if (started_.load(std::memory_order_relaxed)) return;
  start_time_ = std::chrono::steady_clock::now();
  threads_.reserve(worker_target_);
  for (std::size_t w = 0; w < worker_target_; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
  started_.store(true, std::memory_order_release);
}

void ThreadPool::enqueue(std::function<void()> task) {
  ensure_started();
  std::size_t target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;
  } else {
    target = round_robin_.fetch_add(1, std::memory_order_relaxed) %
             worker_target_;
  }
  {
    const std::lock_guard<std::mutex> lock(queues_[target].mutex);
    queues_[target].tasks.push_back(std::move(task));
  }
  const std::size_t depth = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  fetch_max(high_water_, depth);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    // Empty critical section: pairs with the worker's predicate check so a
    // worker observing pending_ == 0 is guaranteed to receive the notify.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::take_task(std::size_t index) {
  {
    Worker& own = queues_[index];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      // Own work newest-first: the task most likely still warm in cache.
      std::function<void()> task = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  for (std::size_t step = 1; step < worker_target_; ++step) {
    Worker& victim = queues_[(index + step) % worker_target_];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      // Steal oldest-first: the task the victim is furthest from running.
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::worker_main(std::size_t index) {
  tls_worker = {this, index};
  for (;;) {
    std::function<void()> task = take_task(index);
    if (!task) {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [this] {
        return pending_.load(std::memory_order_relaxed) > 0 || shutdown_;
      });
      if (shutdown_ && pending_.load(std::memory_order_relaxed) == 0) return;
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();
    busy_nanos_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& body,
                                unsigned max_concurrency) {
  if (count == 0) return;
  std::size_t width =
      max_concurrency == 0 ? worker_target_ : max_concurrency;
  width = std::min(std::max<std::size_t>(width, 1), count);
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ensure_started();
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);

  // Shared loop state: helpers claim chunks from `next`; each claimed chunk
  // is eventually accounted in `done` (run or abandoned after an error), and
  // the caller returns once done == count. Held by shared_ptr so helpers
  // scheduled after the loop drained can still see it, find no work, and
  // exit without touching `body`.
  struct Loop {
    std::size_t count = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0;              // guarded by mutex
    std::exception_ptr error;          // guarded by mutex
  };
  auto loop = std::make_shared<Loop>();
  loop->count = count;
  // Dynamic chunking: ~8 chunks per participating thread balances load
  // (one slow index stalls only its chunk) against claim-counter traffic.
  loop->chunk = std::max<std::size_t>(1, count / (width * 8));
  loop->body = &body;

  const auto run_chunks = [](const std::shared_ptr<Loop>& state) {
    for (;;) {
      const std::size_t lo =
          state->next.fetch_add(state->chunk, std::memory_order_relaxed);
      if (lo >= state->count) return;
      const std::size_t hi = std::min(state->count, lo + state->chunk);
      if (!state->stop.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = lo; i < hi; ++i) (*state->body)(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
          state->stop.store(true, std::memory_order_relaxed);
        }
      }
      const std::lock_guard<std::mutex> lock(state->mutex);
      state->done += hi - lo;
      if (state->done == state->count) state->finished.notify_all();
    }
  };

  // Helpers beyond the pool's worker count (or the chunk count) would only
  // queue up to find no work left; the caller is the +1 participant.
  const std::size_t chunks = (count + loop->chunk - 1) / loop->chunk;
  const std::size_t helpers =
      std::min({width - 1, static_cast<std::size_t>(worker_target_), chunks});
  for (std::size_t h = 0; h < helpers; ++h)
    enqueue([loop, run_chunks] { run_chunks(loop); });

  run_chunks(loop);

  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->finished.wait(lock, [&] { return loop->done == loop->count; });
  // Take the exception out of the shared state before rethrowing: helpers
  // may still hold `loop` (their task object dies after this wait returns),
  // and if the Loop kept the last reference, the exception — including the
  // refcounted message the caller is reading via what() — would be freed on
  // a worker thread, racing the caller's catch block.
  std::exception_ptr error = std::move(loop->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

PoolStats ThreadPool::stats() const {
  PoolStats stats;
  stats.workers = worker_target_;
  stats.started = started_.load(std::memory_order_acquire);
  stats.tasks_submitted = submitted_.load(std::memory_order_relaxed);
  stats.tasks_executed = executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  stats.queue_depth_high_water = high_water_.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) / 1e9;
  if (stats.started) {
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_time_)
                             .count();
  }
  return stats;
}

void ThreadPool::attach_metrics(MetricsRegistry& registry) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (!metrics_attachments_.empty()) return;
  using Kind = MetricsRegistry::Kind;
  const auto count_of = [](const std::atomic<std::uint64_t>& source) {
    return [&source] {
      return static_cast<double>(source.load(std::memory_order_relaxed));
    };
  };
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.tasks_submitted.total", Kind::kCounter, count_of(submitted_)));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.tasks_executed.total", Kind::kCounter, count_of(executed_)));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.steals.total", Kind::kCounter, count_of(steals_)));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.parallel_fors.total", Kind::kCounter, count_of(parallel_fors_)));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.queue_depth.high_water", Kind::kGauge, count_of(high_water_)));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.busy.seconds", Kind::kGauge, [this] {
        return static_cast<double>(
                   busy_nanos_.load(std::memory_order_relaxed)) /
               1e9;
      }));
  metrics_attachments_.push_back(registry.attach_callback(
      "pool.workers", Kind::kGauge,
      [this] { return static_cast<double>(worker_target_); }));
}

ThreadPool& ThreadPool::default_pool() {
  // FGCS_THREADS pins the worker count, else hardware_concurrency. Read
  // once — the pool outlives any knob change.
  static ThreadPool pool(env_thread_count(
      "FGCS_THREADS", std::max(1u, std::thread::hardware_concurrency())));
  static const bool attached =
      (pool.attach_metrics(MetricsRegistry::global()), true);
  (void)attached;
  return pool;
}

}  // namespace fgcs
