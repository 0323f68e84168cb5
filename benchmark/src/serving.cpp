#include "serving.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "core/curve_cache.hpp"
#include "core/estimator.hpp"
#include "core/predictor.hpp"
#include "net/wire.hpp"
#include "stats.hpp"
#include "trace/trace_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fgcs::benchmark {

namespace {

constexpr std::size_t kAppendChunk = 600;  // samples per append: one hour

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_prediction(const Prediction& a, const Prediction& b) {
  return same_bits(a.temporal_reliability, b.temporal_reliability) &&
         same_bits(a.p_absorb[0], b.p_absorb[0]) &&
         same_bits(a.p_absorb[1], b.p_absorb[1]) &&
         same_bits(a.p_absorb[2], b.p_absorb[2]) &&
         a.initial_state == b.initial_state &&
         a.training_days_used == b.training_days_used && a.steps == b.steps;
}

std::string node_id(int index) { return "node" + std::to_string(index); }

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double value : values) total += value;
  return total;
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

/// In-process TraceStore appends of one-hour chunks after a 14-day history,
/// and the append frame codec on the same chunks.
struct StoreTimings {
  std::vector<double> append_us;     ///< appends that closed no day
  std::vector<double> day_close_us;  ///< appends that closed a day
  std::vector<double> codec_us;      ///< encode_append + decode_append
};

StoreTimings measure_store(const MachineTrace& trace) {
  constexpr std::int64_t kHistory = 14;
  const std::int64_t last_day = std::min<std::int64_t>(trace.day_count(),
                                                       kHistory + 4);
  FGCS_REQUIRE_MSG(last_day > kHistory, "store timing needs > 14 days");
  TraceStore store(TraceStoreConfig{.retention_days = kHistory});
  store.adopt_trace(trace.slice(0, kHistory));
  const MachineSpec spec{.machine_id = trace.machine_id(),
                         .epoch_day_of_week =
                             trace.calendar().epoch_day_of_week(),
                         .sampling_period = trace.sampling_period(),
                         .total_mem_mb = trace.total_mem_mb()};
  net::WireAppendRequest request;
  request.machine_id = spec.machine_id;
  request.epoch_day_of_week =
      static_cast<std::uint8_t>(spec.epoch_day_of_week);
  request.sampling_period = spec.sampling_period;
  request.total_mem_mb = static_cast<std::uint32_t>(spec.total_mem_mb);

  StoreTimings timings;
  const std::size_t per_day = trace.samples_per_day();
  for (std::int64_t day = kHistory; day < last_day; ++day) {
    for (std::size_t offset = 0; offset < per_day; offset += kAppendChunk) {
      request.first_sample_index =
          static_cast<std::uint64_t>(day) * per_day + offset;
      request.samples.clear();
      for (std::size_t i = offset; i < offset + kAppendChunk; ++i)
        request.samples.push_back(trace.at(day, i));

      Clock::time_point t0 = Clock::now();
      const net::WireAppendRequest decoded =
          net::decode_append(net::encode_append(request));
      Clock::time_point t1 = Clock::now();
      timings.codec_us.push_back(micros_between(t0, t1));

      t0 = Clock::now();
      const AppendResult result = store.append(
          spec, decoded.first_sample_index, decoded.samples);
      t1 = Clock::now();
      (result.days_closed > 0 ? timings.day_close_us : timings.append_us)
          .push_back(micros_between(t0, t1));
    }
  }
  return timings;
}

ReplicationPlan plan_unit_cost(const std::vector<net::WireRequestItem>& items,
                               const std::vector<Prediction>& predictions) {
  std::vector<ReplicaCandidate> candidates;
  for (std::size_t i = 0; i < items.size(); ++i)
    candidates.push_back({items[i].machine_key,
                          predictions[i].temporal_reliability, 1.0});
  return plan_replicas(std::move(candidates),
                       PlannerConfig{.target_availability = 0.99});
}

}  // namespace

net::LoadgenConfig read_mix(std::uint64_t seed, double rate, std::size_t ops,
                            unsigned connections, std::size_t keys,
                            std::int64_t target_day) {
  return {.seed = seed,
          .offered_rate = rate,
          .total_ops = ops,
          .connections = connections,
          .key_count = keys,
          .zipf_theta = 0.99,
          .batch_min = 1,
          .batch_max = 4,
          .reconnect_prob = 0.0,
          .distinct_windows = 4,
          .target_day = target_day};
}

Reader::Reader(std::unique_ptr<net::ShardedPredictionClient> connection,
               std::uint64_t seed, std::size_t served_capacity,
               std::size_t sampled_capacity)
    : client(std::move(connection)),
      served(served_capacity, seed),
      sampled(sampled_capacity, seed ^ 0x5a4d504c45ull) {}

std::vector<Prediction> Reader::send(std::uint64_t root, SpanRecorder* spans) {
  const Clock::time_point t0 = Clock::now();
  std::vector<Prediction> predictions = client->predict_batch(items);
  const Clock::time_point t1 = Clock::now();
  if (const std::size_t slot = served.admit(); slot != served.kDrop) {
    const std::size_t pick = slot % items.size();
    served.store(slot, {items[pick], predictions[pick]});
  }
  if (spans != nullptr) {
    spans->leaf("client.predict_batch", root, root, t0, t1);
    if (const std::size_t slot = sampled.admit(); slot != sampled.kDrop)
      sampled.store(slot,
                    {root, items, predictions, micros_between(t0, t1)});
  }
  return predictions;
}

void add_latency_metrics(RunResult& result, const PhaseLog& phase,
                         double predictions_per_second) {
  const std::size_t n = phase.completions.size();
  const auto metric = [&](const char* name, int per_mille) {
    return Metric{name, phase.sliced_percentile(per_mille), "ms",
                  count_note(n) + ", median of " +
                      std::to_string(phase.slices_for(per_mille)) +
                      " slices, " +
                      std::to_string(samples_beyond(n, per_mille)) +
                      " beyond"};
  };
  result.end_to_end.push_back(metric("latency_p50_ms", 500));
  result.end_to_end.push_back(metric("latency_p90_ms", 900));
  result.end_to_end.push_back(
      {"throughput_preds_s", predictions_per_second, "preds/s", ""});
  result.unbounded.push_back(metric("latency_p95_ms", 950));
  result.unbounded.push_back(metric("latency_p99_ms", 990));
}

void book(RunResult& result, const PhaseLog& log) {
  result.attempted += log.attempted;
  result.failed += log.failed;
}

double mean_steps(const std::vector<SampledOp>& ops) {
  double steps = 0;
  double count = 0;
  for (const SampledOp& op : ops)
    for (const Prediction& prediction : op.served) {
      steps += static_cast<double>(prediction.steps);
      ++count;
    }
  return count > 0 ? steps / count : 0;
}

std::vector<TimeWindow> seeded_windows(std::uint64_t seed, std::size_t count,
                                       std::int64_t min_minutes,
                                       std::int64_t max_minutes) {
  Rng rng(seed ^ 0x77696e646f77ull);
  std::vector<TimeWindow> windows;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t minutes =
        count == 1 ? min_minutes
                   : min_minutes + static_cast<std::int64_t>(i) *
                                       (max_minutes - min_minutes) /
                                       static_cast<std::int64_t>(count - 1);
    windows.push_back(
        {.start_of_day = rng.uniform_int(5 * 60, 19 * 60) * 60,
         .length = minutes * 60});
  }
  return windows;
}

TraceLookup lookup_in(const std::vector<MachineTrace>& traces) {
  std::map<std::string, const MachineTrace*> by_id;
  for (const MachineTrace& trace : traces)
    by_id.emplace(trace.machine_id(), &trace);
  return [by_id = std::move(by_id)](const std::string& id)
             -> const MachineTrace& { return *by_id.at(id); };
}

void check_served(const std::vector<ServedSample>& samples,
                  const TraceLookup& trace_of,
                  std::vector<std::string>& failures) {
  const AvailabilityPredictor predictor;
  std::size_t mismatches = 0;
  for (const ServedSample& sample : samples) {
    const Prediction expected =
        predictor.predict(trace_of(sample.item.machine_key),
                          sample.item.request);
    if (same_prediction(expected, sample.served)) continue;
    if (++mismatches <= 3) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "served prediction differs from in-process: %s day %lld "
                    "window %lld+%lld served TR %.17g expected %.17g",
                    sample.item.machine_key.c_str(),
                    static_cast<long long>(sample.item.request.target_day),
                    static_cast<long long>(
                        sample.item.request.window.start_of_day),
                    static_cast<long long>(sample.item.request.window.length),
                    sample.served.temporal_reliability,
                    expected.temporal_reliability);
      failures.emplace_back(line);
    }
  }
  if (mismatches > 3)
    failures.push_back(std::to_string(mismatches) +
                       " served predictions differ from in-process");
}

void ClientTotals::add(net::ShardedPredictionClient& client) {
  batches += client.stats().batches;
  sub_batches += client.stats().sub_batches;
  wrong_shard_hops += client.stats().wrong_shard_hops;
  for (const RingMember& member : client.ring().members())
    add(client.client_for(member));
}

void ClientTotals::add(const net::PredictionClient& client) {
  retries += client.stats().retries;
  reconnects += client.stats().reconnects;
}

ClientTotals ClientTotals::minus(const ClientTotals& before) const {
  return {retries - before.retries, reconnects - before.reconnects,
          batches - before.batches, sub_batches - before.sub_batches,
          wrong_shard_hops - before.wrong_shard_hops};
}

Fleet::Fleet(int count, const ServiceConfig& service_config,
             const net::ServerConfig& server_config,
             std::span<const MachineTrace> traces) {
  // Vnode placement depends on member ids only, so the ring can assign
  // traces before the servers have ports.
  std::vector<RingMember> members;
  for (int i = 0; i < count; ++i) members.push_back({node_id(i)});
  const HashRing placement(members);
  for (int i = 0; i < count; ++i) {
    net::ServerConfig config = server_config;
    config.node_id = node_id(i);
    Node node;
    node.service = std::make_shared<PredictionService>(service_config);
    node.server = std::make_unique<net::PredictionServer>(config, node.service);
    for (const MachineTrace& trace : traces)
      if (placement.owner(trace.machine_id())->node_id == config.node_id)
        node.server->add_trace(trace);
    node.server->start();
    members[static_cast<std::size_t>(i)].port = node.server->port();
    nodes_.push_back(std::move(node));
  }
  ring_ = HashRing(members, placement.vnodes(), /*version=*/1);
  for (const Node& node : nodes_) node.server->set_ring(ring_);
}

Fleet::~Fleet() {
  for (const Node& node : nodes_) node.server->stop();
}

PredictionService& Fleet::service_of(const std::string& id) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (node_id(static_cast<int>(i)) == id) return *nodes_[i].service;
  throw PreconditionError("unknown node " + id);
}

std::unique_ptr<net::ShardedPredictionClient> Fleet::client() const {
  return std::make_unique<net::ShardedPredictionClient>(ring_);
}

Counters Fleet::counters() const {
  Counters counters;
  for (const Node& node : nodes_) {
    const ServiceStats stats = node.service->stats();
    counters.service.lookups += stats.lookups;
    counters.service.misses += stats.misses;
    counters.service.evictions += stats.evictions;
    counters.service.invalidations += stats.invalidations;
    counters.service.stale_drops += stats.stale_drops;
    counters.service.estimate_seconds += stats.estimate_seconds;
    counters.service.solve_seconds += stats.solve_seconds;
    counters.service.pool = stats.pool;  // one process-wide pool
    counters.server += node.server->stats();
  }
  counters.request_seconds = read_histogram("fgcs_net_request_seconds");
  return counters;
}

std::size_t Fleet::entries() const {
  std::size_t total = 0;
  for (const Node& node : nodes_) total += node.service->size();
  return total;
}

ReplayResult replay(const std::vector<SampledOp>& ops, const ReplaySetup& setup,
                    SpanRecorder& spans) {
  ReplayResult out;
  const HashRing& ring = setup.fleet->ring();
  const bool routed = ring.size() > 1;
  const SmpEstimator estimator;

  // Times `body`; records it as a span under `parent` unless `name` is null.
  const auto timed = [&spans](const char* name, std::uint64_t parent,
                              std::uint64_t request, auto&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    if (name != nullptr) spans.leaf(name, parent, request, t0, t1);
    return micros_between(t0, t1);
  };
  const auto cold_pieces = [&](const BatchRequest& request,
                               std::uint64_t parent, std::uint64_t op) {
    std::optional<SmpModel> model;
    const double estimate_us =
        timed(parent ? "estimator.estimate" : nullptr, parent, op, [&] {
          model.emplace(estimator.estimate(*request.trace,
                                           request.request.target_day,
                                           request.request.window));
        });
    const double build_us =
        timed(parent ? "solver.curve_build" : nullptr, parent, op, [&] {
          const AbsorptionCurves curves(
              *model,
              request.request.window.steps(request.trace->sampling_period()));
        });
    out.estimate_ms.push_back(estimate_us / 1000);
    out.curve_build_ms.push_back(build_us / 1000);
    return estimate_us + build_us;
  };

  for (const SampledOp& op : ops) {
    const std::uint64_t id = op.request;
    const std::uint64_t root = spans.open();
    const Clock::time_point begin = Clock::now();
    std::vector<std::uint8_t> bytes;
    std::vector<net::WireRequestItem> decoded;
    out.encode_request_us.push_back(
        timed("wire.encode_request", root, id,
              [&] { bytes = net::encode_request(op.items); }));
    out.decode_request_us.push_back(
        timed("wire.decode_request", root, id,
              [&] { decoded = net::decode_request(bytes); }));
    std::vector<const RingMember*> owners(decoded.size());
    const double owner_us =
        timed(routed ? "ring.owner" : nullptr, root, id, [&] {
          for (std::size_t i = 0; i < decoded.size(); ++i)
            owners[i] = ring.owner(decoded[i].machine_key);
        });
    out.owner_ns.push_back(owner_us * 1000 /
                           static_cast<double>(decoded.size()));

    std::map<std::string, std::vector<BatchRequest>> by_node;
    for (std::size_t i = 0; i < decoded.size(); ++i)
      by_node[owners[i]->node_id].push_back(
          {&setup.trace_of(decoded[i].machine_key), decoded[i].request});

    double service_us = 0;  // the server's own service time for the op
    double lookup_us = 0;   // warm lookups
    double compute_us = 0;  // estimator + solver
    double encode_response_us = 0;
    double decode_response_us = 0;
    for (const auto& [node, batch] : by_node) {
      std::vector<Prediction> results;
      if (setup.cold) {
        PredictionService fresh(setup.cold_config);
        const double heap_before = heap_in_use_bytes();
        service_us += timed(nullptr, root, id,
                            [&] { results = fresh.predict_batch(batch); });
        out.bytes_per_entry.push_back((heap_in_use_bytes() - heap_before) /
                                      static_cast<double>(batch.size()));
        lookup_us += timed(nullptr, root, id,
                           [&] { results = fresh.predict_batch(batch); });
        const std::uint64_t cold = spans.open();
        const Clock::time_point t0 = Clock::now();
        for (const BatchRequest& request : batch)
          compute_us += cold_pieces(request, cold, id);
        spans.record(cold, "service.cold", root, id, t0, Clock::now());
      } else {
        PredictionService& service = setup.fleet->service_of(node);
        service.predict_batch(batch);  // re-caches what a day close dropped
        lookup_us += timed("service.lookup", root, id,
                           [&] { results = service.predict_batch(batch); });
        service_us = lookup_us;
      }
      std::vector<std::uint8_t> response;
      encode_response_us +=
          timed("wire.encode_response", root, id,
                [&] { response = net::encode_response(results); });
      decode_response_us +=
          timed("wire.decode_response", root, id,
                [&] { results = net::decode_response(response); });
    }
    out.encode_response_us.push_back(encode_response_us);
    out.decode_response_us.push_back(decode_response_us);
    spans.record(root, "replay", 0, id, begin, Clock::now());

    const double codec_us = out.encode_request_us.back() +
                            out.decode_request_us.back() +
                            encode_response_us + decode_response_us;
    const double items = static_cast<double>(decoded.size());
    out.lookup_us.push_back(lookup_us / items);
    out.batch_ms.push_back(service_us / 1000);
    const double transport = op.client_us - codec_us - owner_us - service_us;
    out.transport_us.push_back(transport);
    out.wire_transport_share.push_back((codec_us + transport) / op.client_us);
    if (setup.cold) out.compute_ms.push_back(compute_us / 1000);

    if (!setup.planner_on_path) {
      ReplicationPlan plan;
      out.plan_us.push_back(timed(nullptr, 0, id, [&] {
        plan = plan_unit_cost(op.items, op.served);
      }));
      ++out.plans;
      out.planner_feasible += plan.feasible ? 1 : 0;
      out.planner_replicas += plan.replicas.size();
    }
  }
  if (!setup.cold) {
    // Off the warm path: the estimator, the solver and a fresh cache entry
    // on this workload's own requests, so their per-layer metrics exist
    // for every workload.
    for (std::size_t k = 0; k < std::min<std::size_t>(ops.size(), 16); ++k) {
      const net::WireRequestItem& item = ops[k].items.front();
      const BatchRequest request{&setup.trace_of(item.machine_key),
                                 item.request};
      cold_pieces(request, 0, 0);
      PredictionService fresh;
      const double heap_before = heap_in_use_bytes();
      fresh.predict(*request.trace, request.request);
      out.bytes_per_entry.push_back(heap_in_use_bytes() - heap_before);
    }
  }
  return out;
}

std::vector<Metric> layer_metrics(const LayerInputs& in,
                                  const ReplayResult& r) {
  const StoreTimings store = measure_store(*in.store_trace);
  const ServiceStats& s0 = in.before.service;
  const ServiceStats& s1 = in.after.service;
  const std::uint64_t lookups = s1.lookups - s0.lookups;
  const std::uint64_t misses = s1.misses - s0.misses;
  const double ops = static_cast<double>(std::max<std::uint64_t>(in.ops, 1));
  const double estimate_total = sum(r.estimate_ms);
  const double build_total = sum(r.curve_build_ms);
  const double pool_wall = s1.pool.wall_seconds - s0.pool.wall_seconds;
  const std::vector<double>& plan_us =
      in.live_plan_us.empty() ? r.plan_us : in.live_plan_us;
  const double plans = static_cast<double>(
      std::max<std::size_t>(in.live_plan_us.empty() ? r.plans
                                                    : in.live_plan_us.size(),
                            1));
  const std::size_t feasible =
      in.live_plan_us.empty() ? r.planner_feasible : in.live_feasible;
  const std::size_t replicas =
      in.live_plan_us.empty() ? r.planner_replicas : in.live_replicas;
  std::vector<double> lateness = in.lateness_ms;
  std::sort(lateness.begin(), lateness.end());

  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit,
                        std::string note) {
    m.push_back({name, value, unit, std::move(note)});
  };
  const std::string replayed = count_note(r.encode_request_us.size());
  add("net.wire.encode_request_us", median(r.encode_request_us), "us",
      replayed);
  add("net.wire.decode_request_us", median(r.decode_request_us), "us",
      replayed);
  add("net.wire.encode_response_us", median(r.encode_response_us), "us",
      replayed);
  add("net.wire.decode_response_us", median(r.decode_response_us), "us",
      replayed);
  add("net.wire.append_codec_us", median(store.codec_us), "us",
      count_note(store.codec_us.size()));
  add("net.transport_us", median(r.transport_us), "us", replayed);
  add("net.server.request_p50_us",
      histogram_median(in.before.request_seconds, in.after.request_seconds) *
          1e6,
      "us", "net.request.seconds, decade buckets");
  add("net.bytes_per_op",
      static_cast<double>(in.after.server.rx_bytes + in.after.server.tx_bytes -
                          in.before.server.rx_bytes -
                          in.before.server.tx_bytes) /
          ops,
      "bytes", count_note(in.ops) + " ops");
  add("net.client.retries", static_cast<double>(in.clients.retries), "count",
      "");
  add("net.client.reconnects", static_cast<double>(in.clients.reconnects),
      "count", "sockets opened during the timed phases");
  add("loadgen.lateness_p99_ms", percentile(lateness, 990), "ms",
      count_note(lateness.size()));
  add("service.lookup_us", median(r.lookup_us), "us", replayed);
  add("service.lookups", static_cast<double>(lookups), "count", "");
  add("service.hit_ratio",
      lookups ? static_cast<double>(lookups - misses) /
                    static_cast<double>(lookups)
              : 0,
      "ratio", "base " + std::to_string(lookups) + " lookups");
  add("service.misses", static_cast<double>(misses), "count", "");
  add("service.batch_p50_ms", median(r.batch_ms), "ms", replayed);
  add("service.evictions", static_cast<double>(s1.evictions - s0.evictions),
      "count", "");
  add("service.entries", static_cast<double>(in.entries), "count", "");
  add("service.bytes_per_entry", median(r.bytes_per_entry), "bytes",
      "heap held by a fresh service per request, " +
          count_note(r.bytes_per_entry.size()));
  add("service.stale_drops",
      static_cast<double>(s1.stale_drops - s0.stale_drops), "count", "");
  add("service.invalidations",
      static_cast<double>(s1.invalidations - s0.invalidations), "count", "");
  add("estimator.estimate_ms", median(r.estimate_ms), "ms",
      count_note(r.estimate_ms.size()));
  add("estimator.share",
      estimate_total + build_total > 0
          ? estimate_total / (estimate_total + build_total)
          : 0,
      "ratio", "estimate / (estimate + curve build)");
  add("solver.curve_build_ms", median(r.curve_build_ms), "ms",
      count_note(r.curve_build_ms.size()));
  add("solver.steps_per_request", in.steps_per_request, "count", "");
  add("solver.solve_seconds_total", s1.solve_seconds, "s",
      "since the services started, set-up included");
  add("pool.tasks",
      static_cast<double>(s1.pool.tasks_executed - s0.pool.tasks_executed),
      "count", "");
  add("pool.steals", static_cast<double>(s1.pool.steals - s0.pool.steals),
      "count", "");
  add("pool.queue_high_water",
      static_cast<double>(s1.pool.queue_depth_high_water), "count",
      "process lifetime");
  add("pool.utilization",
      pool_wall > 0 ? (s1.pool.busy_seconds - s0.pool.busy_seconds) /
                          (pool_wall * s1.pool.workers)
                    : 0,
      "ratio", std::to_string(s1.pool.workers) + " workers");
  add("store.append_us", median(store.append_us), "us",
      count_note(store.append_us.size()));
  add("store.day_close_us", median(store.day_close_us), "us",
      count_note(store.day_close_us.size()));
  add("store.days_closed",
      static_cast<double>(in.after.server.days_closed -
                          in.before.server.days_closed),
      "count", "");
  add("store.duplicates",
      static_cast<double>(in.after.server.append_duplicates -
                          in.before.server.append_duplicates),
      "count", "");
  add("ring.owner_ns", median(r.owner_ns), "ns", replayed);
  add("routing.sub_batches_per_batch",
      in.clients.batches ? static_cast<double>(in.clients.sub_batches) /
                               static_cast<double>(in.clients.batches)
                         : 0,
      "ratio", "base " + std::to_string(in.clients.batches) + " batches");
  add("routing.wrong_shard_hops",
      static_cast<double>(in.clients.wrong_shard_hops), "count", "");
  add("planner.plan_us", median(plan_us), "us",
      count_note(plan_us.size()) +
          (in.live_plan_us.empty() ? " off-path, unit cost" : ""));
  add("planner.feasible_ratio", static_cast<double>(feasible) / plans,
      "ratio", "");
  add("planner.mean_replicas", static_cast<double>(replicas) / plans,
      "count", "");
  return m;
}

std::vector<std::string> self_time_report(const std::vector<Span>& spans,
                                          const char* root_name) {
  std::vector<double> op_ms;
  for (const Span& span : spans)
    if (std::string(span.name) == root_name)
      op_ms.push_back((span.end_us - span.start_us) / 1000);
  std::vector<std::string> lines;
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %8s %12s %12s", "span", "n",
                "self_p50_us", "self_p99_us");
  lines.emplace_back(line);
  for (auto& [name, self] : self_times_us(spans)) {
    std::sort(self.begin(), self.end());
    std::snprintf(line, sizeof(line), "%-24s %8zu %12.3f %12.3f",
                  name.c_str(), self.size(), percentile(self, 500),
                  percentile(self, 990));
    lines.emplace_back(line);
  }
  std::snprintf(line, sizeof(line), "%s median: %.4f ms (n=%zu)", root_name,
                median(op_ms), op_ms.size());
  lines.emplace_back(line);
  std::size_t planner = 0;
  std::size_t routing = 0;
  for (const Span& span : spans) {
    planner += std::string(span.name) == "planner.plan";
    routing += std::string(span.name) == "ring.owner";
  }
  lines.push_back("planner.plan spans: " + std::to_string(planner) +
                  ", ring.owner spans: " + std::to_string(routing));
  return lines;
}

}  // namespace fgcs::benchmark
