#include "util/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <system_error>

namespace fgcs {

unsigned parse_thread_count(const char* text, unsigned fallback) {
  if (text == nullptr) return fallback;
  const char* const end = text + std::strlen(text);
  unsigned value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end || value == 0 || value > 512)
    return fallback;
  return value;
}

double PoolStats::utilization() const {
  if (!started || workers == 0 || wall_seconds <= 0.0) return 0.0;
  return busy_seconds / (wall_seconds * static_cast<double>(workers));
}

ThreadPool::ThreadPool(unsigned workers)
    : worker_target_(workers == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : workers) {}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::ensure_started() {
  if (started_.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock(start_mutex_);
  if (started_.load(std::memory_order_relaxed)) return;
  start_time_ = std::chrono::steady_clock::now();
  threads_.reserve(worker_target_);
  for (unsigned w = 0; w < worker_target_; ++w)
    threads_.emplace_back([this] { worker_main(); });
  started_.store(true, std::memory_order_release);
}

void ThreadPool::enqueue(std::function<void()> task) {
  ensure_started();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    tasks_.push_back(std::move(task));
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (tasks_.size() > high_water_.load(std::memory_order_relaxed))
      high_water_.store(tasks_.size(), std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shut down, and every task has run
      task = std::move(tasks_.front());
      tasks_.pop_front();
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
  static ThreadPool pool(parse_thread_count(
      std::getenv("FGCS_THREADS"),
      std::max(1u, std::thread::hardware_concurrency())));
  static const bool attached =
      (pool.attach_metrics(MetricsRegistry::global()), true);
  (void)attached;
  return pool;
}

}  // namespace fgcs
