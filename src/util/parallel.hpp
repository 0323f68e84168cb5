// Shared-memory parallel helpers.
//
// parallel_for runs an index range on the process-wide persistent
// work-stealing pool (util/thread_pool.hpp): workers are spawned once and
// reused across calls, and the range is claimed in small dynamic chunks, so
// repeated fan-outs — a prediction service probing the fleet per job
// placement, a generator building 20 machines × 91 days of traces — pay no
// thread spawn/teardown per call and one slow index stalls only its chunk.
// With an effective width of one (single-core host, or max_threads = 1) the
// loop degrades to the serial loop in index order with no thread activity.
//
// The callable must be safe to run concurrently for distinct indices. The
// first exception it throws is captured, the not-yet-claimed remainder of
// the range is abandoned, and the exception is rethrown on the caller once
// in-flight work settles. Calling parallel_for from inside a parallel_for
// body is safe: the inner caller works its own range, so nesting cannot
// deadlock.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.hpp"

namespace fgcs {

/// Invokes `body(i)` for i in [0, count) on the persistent default pool,
/// using at most `max_threads` threads (0 = the pool's worker count).
template <typename Body>
void parallel_for(std::size_t count, Body&& body, unsigned max_threads = 0) {
  if (count == 0) return;
  ThreadPool& pool = ThreadPool::default_pool();
  const unsigned width =
      max_threads == 0 ? pool.worker_count() : max_threads;
  if (width <= 1 || count == 1) {
    // Serial fast path: no pool startup, no std::function wrap.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  const std::function<void(std::size_t)> wrapped =
      [&body](std::size_t i) { body(i); };
  pool.for_each_index(count, wrapped, max_threads);
}

}  // namespace fgcs
