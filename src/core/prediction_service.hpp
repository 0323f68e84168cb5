// Fleet-scale prediction front-end: request batching plus memoized
// predictions (the "serve many clients" layer above AvailabilityPredictor).
//
// A scheduler placing one job probes every machine in the fleet with the
// same time window, and probes again minutes later with a nearly identical
// one; the answer for a (machine, day-type, window) triple is the same each
// time. PredictionService exploits that: predictions fan out over the
// parallel_for thread pool, and answers live in a sharded LRU cache. A miss
// estimates (Q, H), builds one transient AbsorptionCurves table at the
// window's horizon (curve_cache.hpp), and fills the Prediction for BOTH
// transient initial states from it; the model and the table are dropped on
// return, so an entry holds only its training days, the majority initial
// state and the two Predictions, and every later lookup of the key whose
// training days still match is a hit.
//
// Cache key and staleness: entries are keyed by (machine_id, day_type,
// window_start, window_length, history_generation). The generation is a
// monotone counter bumped by invalidate(machine_id) whenever the machine's
// history changes — a counter is a complete staleness signal and costs O(1)
// where content hashing would cost O(samples). It stays in the key even
// though every lookup also re-runs the cheap training-day rule (target_day
// is not part of the key, and retention shifts day indices, so two equal
// day lists can name different days): an entry is served only when it was
// estimated under the current generation from exactly the days the rule
// selects now (DESIGN.md §6).
//
// Retirement: invalidate() bumps the generation and does nothing else.
// Every lookup builds its key from the current generation, so the
// machine's old entries are unreachable from that moment; they are never
// swept, they age out of the LRU, so dead entries are bounded like live
// ones by shards × capacity_per_shard.
//
// Thread-safety contract: all public methods may be called concurrently.
// Traces passed in must outlive the call and must not be mutated during it
// (append new days between batches, then invalidate()). A cache hit returns
// the stored Prediction for its initial state: TR, p_absorb, initial state,
// steps and training days bit-identical to AvailabilityPredictor. Both of
// an entry's Predictions carry the timings of the one estimate and build
// that filled it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "core/predictor.hpp"
#include "core/states.hpp"
#include "trace/machine_trace.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fgcs {

struct ServiceConfig {
  EstimatorConfig estimator{};
  /// Cache shards; more shards = less lock contention under large batches.
  std::size_t shards = 16;
  /// LRU capacity per shard, in (machine, window) answer entries.
  std::size_t capacity_per_shard = 512;
  /// Concurrency cap for predict_batch on the persistent thread pool
  /// (0 = the pool's full worker count; 1 = serial). No threads are spawned
  /// per batch either way — the cap bounds how many pool workers join in.
  unsigned max_threads = 0;
};

/// One element of a predict_batch call. The trace must outlive the call.
struct BatchRequest {
  const MachineTrace* trace = nullptr;
  PredictionRequest request{};
};

/// Monotonic observability counters; snapshot via PredictionService::stats().
/// Invariant: lookups == hits + misses.
///
/// This is a thin view over the service's metrics instruments — the same
/// values every instance also reports into MetricsRegistry::global() under
/// the `service.*` names (DESIGN.md §8), where multiple instances sum.
struct ServiceStats {
  std::uint64_t lookups = 0;        ///< predict() calls (incl. batched ones)
  std::uint64_t hits = 0;           ///< cached Prediction returned
  std::uint64_t misses = 0;         ///< estimated and solved from scratch
  std::uint64_t evictions = 0;      ///< LRU capacity evictions
  std::uint64_t invalidations = 0;  ///< invalidate() calls
  std::uint64_t stale_drops = 0;    ///< entries dropped by day revalidation
  std::uint64_t batches = 0;        ///< predict_batch() calls
  std::uint64_t batch_requests = 0; ///< requests across all batches
  std::uint64_t max_batch = 0;      ///< largest batch seen
  double estimate_seconds = 0.0;    ///< total wall time in Q/H estimation
  double solve_seconds = 0.0;       ///< total wall time in the Eq. 3 solver
  /// Snapshot of the process-wide thread pool batch fan-out runs on (shared
  /// with every other parallel_for user in the process, e.g. fleet
  /// generation — it observes the substrate, not this service alone).
  PoolStats pool{};
};

class PredictionService {
 public:
  explicit PredictionService(ServiceConfig config = {});

  const SmpEstimator& estimator() const { return estimator_; }
  const ServiceConfig& config() const { return config_; }

  /// Single prediction through the cache. Semantically identical to
  /// AvailabilityPredictor::predict with the same EstimatorConfig; a warm
  /// call returns the cold call's Prediction bit-for-bit.
  Prediction predict(const MachineTrace& trace,
                     const PredictionRequest& request);

  /// Batch fan-out over the thread pool; results align with `requests`.
  /// Every request must carry a non-null trace.
  std::vector<Prediction> predict_batch(std::span<const BatchRequest> requests);

  /// Per-request-fallible batch: same fan-out, but a request whose
  /// prediction throws DataError (an estimation outage, such as the
  /// `service.estimate.fail` failpoint) yields nullopt instead of aborting
  /// the whole batch; a PreconditionError still propagates. The fleet-probe
  /// primitive for schedulers that skip unpredictable machines rather than
  /// re-probing serially.
  std::vector<std::optional<Prediction>> try_predict_batch(
      std::span<const BatchRequest> requests);

  /// Declares that `machine_id`'s history changed: bumps the machine's
  /// history generation, which makes its old cache keys unreachable (they
  /// age out of the LRU). Other machines' entries are untouched.
  void invalidate(const std::string& machine_id);

  /// Current history generation for a machine (0 until first invalidate()).
  std::uint64_t history_generation(const std::string& machine_id) const;

  /// (machine, window) answer entries currently cached, across all shards,
  /// including unreachable ones from retired generations.
  std::size_t size() const;

  ServiceStats stats() const;

 private:
  struct Key {
    std::string machine_id;
    std::uint64_t generation = 0;
    DayType day_type = DayType::kWeekday;
    SimTime window_start = 0;
    SimTime window_length = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  /// The answers for one (machine, day-type, window, generation): the
  /// training days that produced them (revalidated on every hit), the
  /// majority initial state (the default when a request names none), and
  /// the Prediction per transient initial state, both filled by the miss.
  struct Entry {
    std::vector<std::int64_t> training_days;
    State majority_initial = State::kS1;
    std::array<Prediction, 2> by_init;  // by index_of(init)
  };

  struct Shard {
    std::mutex mutex;
    /// Front = most recently used; index points into the list.
    std::list<std::pair<Key, Entry>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, Entry>>::iterator,
                       KeyHash> index;
  };

  Shard& shard_for(const Key& key) const;
  std::uint64_t generation_of(const std::string& machine_id) const;
  /// The one batch body behind predict_batch and try_predict_batch: span,
  /// counters, null-trace check and fan-out; `predict_one(request)` gives
  /// each result, aligned with `requests`.
  template <typename Result, typename PredictOne>
  std::vector<Result> run_batch(std::span<const BatchRequest> requests,
                                const PredictOne& predict_one);

  ServiceConfig config_;
  SmpEstimator estimator_;
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::mutex generation_mutex_;
  std::unordered_map<std::string, std::uint64_t> generations_;

  // Per-instance instruments: the single storage behind both ServiceStats
  // (exact per-service snapshots, unpolluted by other instances) and the
  // global `service.*` exposition (attachments below fold them in by name).
  // The hot hit path therefore still costs exactly two relaxed atomic adds.
  Counter lookups_;
  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter invalidations_;
  Counter stale_drops_;
  Counter batches_;
  Counter batch_requests_;
  Gauge max_batch_;
  Histogram estimate_hist_{Histogram::default_latency_bounds()};
  Histogram solve_hist_{Histogram::default_latency_bounds()};
  Histogram batch_hist_{Histogram::default_latency_bounds()};
  // Declared last: detaches from the global registry before the instruments
  // above are destroyed.
  std::vector<MetricsAttachment> metrics_attachments_;
};

}  // namespace fgcs
