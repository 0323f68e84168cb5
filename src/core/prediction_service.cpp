#include "core/prediction_service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/curve_cache.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_span.hpp"

namespace fgcs {

namespace {

State resolve_initial(const PredictionRequest& request, State majority) {
  const State init = request.initial_state.value_or(majority);
  FGCS_REQUIRE_MSG(is_available(init), "initial state must be S1 or S2");
  return init;
}

}  // namespace

std::size_t PredictionService::KeyHash::operator()(const Key& key) const {
  std::size_t h = std::hash<std::string>{}(key.machine_id);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(key.generation));
  mix(static_cast<std::size_t>(key.day_type));
  mix(static_cast<std::size_t>(key.window_start));
  mix(static_cast<std::size_t>(key.window_length));
  return h;
}

PredictionService::PredictionService(ServiceConfig config)
    : config_(config),
      estimator_(config.estimator),
      shard_count_(std::max<std::size_t>(1, config.shards)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  FGCS_REQUIRE_MSG(config.capacity_per_shard >= 1,
                   "cache capacity must be at least one entry per shard");
  MetricsRegistry& registry = MetricsRegistry::global();
  metrics_attachments_.push_back(
      registry.attach("service.lookups.total", lookups_));
  metrics_attachments_.push_back(registry.attach("service.hits.total", hits_));
  metrics_attachments_.push_back(
      registry.attach("service.misses.total", misses_));
  metrics_attachments_.push_back(
      registry.attach("service.evictions.total", evictions_));
  metrics_attachments_.push_back(
      registry.attach("service.invalidations.total", invalidations_));
  metrics_attachments_.push_back(
      registry.attach("service.stale_drops.total", stale_drops_));
  metrics_attachments_.push_back(
      registry.attach("service.batches.total", batches_));
  metrics_attachments_.push_back(
      registry.attach("service.batch_requests.total", batch_requests_));
  metrics_attachments_.push_back(
      registry.attach("service.max_batch", max_batch_));
  metrics_attachments_.push_back(
      registry.attach("service.estimate.seconds", estimate_hist_));
  metrics_attachments_.push_back(
      registry.attach("service.solve.seconds", solve_hist_));
  metrics_attachments_.push_back(
      registry.attach("service.batch.seconds", batch_hist_));
}

PredictionService::Shard& PredictionService::shard_for(const Key& key) const {
  return shards_[KeyHash{}(key) % shard_count_];
}

std::uint64_t PredictionService::generation_of(
    const std::string& machine_id) const {
  const std::lock_guard<std::mutex> lock(generation_mutex_);
  const auto it = generations_.find(machine_id);
  return it == generations_.end() ? 0 : it->second;
}

Prediction PredictionService::predict(const MachineTrace& trace,
                                      const PredictionRequest& request) {
  validate(request.window);
  FGCS_REQUIRE_MSG(request.target_day >= 0 &&
                       request.target_day <= trace.day_count(),
                   "target day beyond recorded history + 1");
  lookups_.add();

  if (Failpoints::enabled()) {
    // Chaos hooks, evaluated only while something is armed: hard estimation
    // failure, injected estimation latency, and a forced invalidation racing
    // the lookup (the staleness worst case the generation counter + per-hit
    // day revalidation must absorb without ever serving a stale Prediction).
    if (FGCS_FAILPOINT("service.estimate.fail"))
      throw DataError("injected: prediction service estimation failure");
    const double delay = FGCS_FAILPOINT_LATENCY("service.estimate.slow");
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    if (FGCS_FAILPOINT("service.cache.invalidate"))
      invalidate(trace.machine_id());
  }

  const Key key{trace.machine_id(), generation_of(trace.machine_id()),
                trace.day_type(request.target_day),
                request.window.start_of_day, request.window.length};
  // The training-day rule is cheap (a day-index scan) and is re-run on every
  // lookup: cached answers are reused only when they were estimated from
  // exactly the days the rule selects now, so staleness can never change a
  // result.
  // The day list lands in a per-worker buffer — a fleet probe of thousands
  // of machines allocates it once per worker, not once per request.
  static thread_local std::vector<std::int64_t> days;
  estimator_.training_days_for(trace, request.target_day, request.window, days);
  const std::size_t steps = request.window.steps(trace.sampling_period());
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      const Entry& entry = it->second->second;
      if (entry.training_days == days) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hits_.add();
        return entry.by_init[index_of(
            resolve_initial(request, entry.majority_initial))];
      }
      stale_drops_.add();
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
  }

  // Miss: estimate, then one Eq. 3 build answers both initial states at the
  // window's horizon. The model and the curve table die with this scope;
  // only the answers are cached.
  Entry entry;
  entry.training_days = days;
  TraceSpan estimate_span("service.estimate", &estimate_hist_);
  const SmpModel model = [&] {
    const TransitionCounts counts =
        estimator_.count_transitions(trace, days, request.window);
    entry.majority_initial = counts.majority_initial_state();
    return estimator_.build_model(counts);
  }();
  const double estimate_seconds = estimate_span.finish();
  const State init = resolve_initial(request, entry.majority_initial);

  TraceSpan solve_span("service.solve", &solve_hist_);
  const AbsorptionCurves curves(model, steps);  // the one validate()
  for (const State state : {State::kS1, State::kS2}) {
    const SparseTrSolver::Result result = curves.result_at(state, steps);
    Prediction& prediction = entry.by_init[index_of(state)];
    prediction.temporal_reliability = result.temporal_reliability;
    prediction.initial_state = state;
    prediction.p_absorb = result.p_absorb;
    prediction.training_days_used = days.size();
    prediction.steps = steps;
  }
  const double solve_seconds = solve_span.finish();
  for (Prediction& prediction : entry.by_init) {
    prediction.estimate_seconds = estimate_seconds;
    prediction.solve_seconds = solve_seconds;
  }
  misses_.add();
  const Prediction prediction = entry.by_init[index_of(init)];

  // An invalidate() that lands after the generation read files this entry
  // under a dead key: never served, it ages out of the LRU like any other.
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // A concurrent predict raced us here and already cached the same
      // answers; keep its entry when it is still valid.
      if (it->second->second.training_days == days) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return prediction;
      }
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.emplace_front(key, std::move(entry));
    shard.index[key] = shard.lru.begin();
    while (shard.index.size() > config_.capacity_per_shard) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.add();
    }
  }
  return prediction;
}

template <typename Result, typename PredictOne>
std::vector<Result> PredictionService::run_batch(
    std::span<const BatchRequest> requests, const PredictOne& predict_one) {
  TraceSpan span("service.batch", &batch_hist_);
  batches_.add();
  batch_requests_.add(requests.size());
  max_batch_.update_max(static_cast<double>(requests.size()));
  for (const BatchRequest& request : requests)
    FGCS_REQUIRE_MSG(request.trace != nullptr,
                     "batch request carries a null trace");

  std::vector<Result> results(requests.size());
  parallel_for(
      requests.size(),
      [&](std::size_t i) { results[i] = predict_one(requests[i]); },
      config_.max_threads);
  return results;
}

std::vector<Prediction> PredictionService::predict_batch(
    std::span<const BatchRequest> requests) {
  return run_batch<Prediction>(requests, [this](const BatchRequest& item) {
    return predict(*item.trace, item.request);
  });
}

std::vector<std::optional<Prediction>> PredictionService::try_predict_batch(
    std::span<const BatchRequest> requests) {
  return run_batch<std::optional<Prediction>>(
      requests, [this](const BatchRequest& item) -> std::optional<Prediction> {
        try {
          return predict(*item.trace, item.request);
        } catch (const DataError&) {
          return std::nullopt;  // this machine only; the batch proceeds
        }
      });
}

void PredictionService::invalidate(const std::string& machine_id) {
  {
    const std::lock_guard<std::mutex> lock(generation_mutex_);
    ++generations_[machine_id];
  }
  invalidations_.add();
}

std::uint64_t PredictionService::history_generation(
    const std::string& machine_id) const {
  return generation_of(machine_id);
}

std::size_t PredictionService::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].index.size();
  }
  return total;
}

ServiceStats PredictionService::stats() const {
  ServiceStats stats;
  stats.lookups = lookups_.value();
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.evictions = evictions_.value();
  stats.invalidations = invalidations_.value();
  stats.stale_drops = stale_drops_.value();
  stats.batches = batches_.value();
  stats.batch_requests = batch_requests_.value();
  stats.max_batch = static_cast<std::uint64_t>(max_batch_.value());
  stats.estimate_seconds = estimate_hist_.sum();
  stats.solve_seconds = solve_hist_.sum();
  stats.pool = ThreadPool::default_pool().stats();
  return stats;
}

}  // namespace fgcs
