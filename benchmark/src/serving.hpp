// The serving fleet every workload drives, and the measurements they share:
// counter snapshots, the bit-for-bit output check, the traced replay of the
// server-side layers, and the per-layer metric list.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "harness.hpp"
#include "ishare/hash_ring.hpp"
#include "ishare/replication_planner.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "spans.hpp"

namespace fgcs::benchmark {

/// A workload: set-up (timed by the caller), then one measured run. A
/// traced run (spans non-null) also replays the server-side layers and
/// fills RunResult::per_layer.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual RunResult run(double seconds, SpanRecorder* spans) = 0;
};

/// nullptr for an unknown name. `seconds` is the run length the workload
/// sizes its inputs for.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds);

std::unique_ptr<Workload> make_warm_read(std::uint64_t seed);
std::unique_ptr<Workload> make_cold_probe(std::uint64_t seed);
std::unique_ptr<Workload> make_ingest_mixed(std::uint64_t seed,
                                            double seconds);
std::unique_ptr<Workload> make_sharded_plan(std::uint64_t seed);

/// `count` windows with seeded daytime starts (05:00–19:00) and lengths
/// spread evenly over [min_minutes, max_minutes], so every seed offers the
/// same mix of Eq. 3 horizons and seeds differ only in where windows fall.
std::vector<TimeWindow> seeded_windows(std::uint64_t seed, std::size_t count,
                                       std::int64_t min_minutes = 60,
                                       std::int64_t max_minutes = 240);

/// The read mix of net::build_plan: Zipf θ=0.99 over `keys` machines, 4
/// hot windows, batches of 1–4, persistent connections. The plan's own
/// windows are ignored; ops index four seeded_windows instead.
net::LoadgenConfig read_mix(std::uint64_t seed, double rate, std::size_t ops,
                            unsigned connections, std::size_t keys,
                            std::int64_t target_day);

/// A served prediction and the request it answered.
struct ServedSample {
  net::WireRequestItem item;
  Prediction served;
};

/// One op kept for the traced replay.
struct SampledOp {
  std::uint64_t request = 0;  ///< the op's root span id
  std::vector<net::WireRequestItem> items;
  std::vector<Prediction> served;
  double client_us = 0;  ///< the client call's round trip
};

using TraceLookup = std::function<const MachineTrace&(const std::string&)>;

/// Finds traces of `traces` by machine id; `traces` must outlive it.
TraceLookup lookup_in(const std::vector<MachineTrace>& traces);

/// One ring-routed read connection that keeps seeded samples of what it
/// was served: `served` for the output check, `sampled` (traced runs only)
/// for the replay.
struct Reader {
  Reader(std::unique_ptr<net::ShardedPredictionClient> connection,
         std::uint64_t seed, std::size_t served_capacity,
         std::size_t sampled_capacity);

  /// Round-trips `items` under the op span `root`.
  std::vector<Prediction> send(std::uint64_t root, SpanRecorder* spans);

  std::unique_ptr<net::ShardedPredictionClient> client;
  std::vector<net::WireRequestItem> items;
  Reservoir<ServedSample> served;
  Reservoir<SampledOp> sampled;
};

/// Adds latency_p50_ms, latency_p90_ms (each the median over its slices,
/// noting sample and slice counts) and throughput_preds_s to the bounded
/// metrics, and latency_p95_ms and latency_p99_ms to the unbounded ones.
void add_latency_metrics(RunResult& result, const PhaseLog& phase,
                         double predictions_per_second);

/// Adds a phase's attempts and failures to the result.
void book(RunResult& result, const PhaseLog& log);

/// Mean Eq. 3 steps of the sampled ops' predictions.
double mean_steps(const std::vector<SampledOp>& ops);

/// Checks each served prediction against AvailabilityPredictor::predict on
/// the same trace, bit for bit: TR, p_absorb, initial state, days used and
/// steps. Appends one message per mismatch.
void check_served(const std::vector<ServedSample>& samples,
                  const TraceLookup& trace_of,
                  std::vector<std::string>& failures);

/// Counters the program keeps, read at one instant.
struct Counters {
  ServiceStats service;  ///< summed over the fleet's services
  net::ServerStats server;
  HistogramCounts request_seconds;  ///< net.request.seconds
};

/// Client-side counters summed over every connection a run used.
struct ClientTotals {
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t batches = 0;
  std::uint64_t sub_batches = 0;
  std::uint64_t wrong_shard_hops = 0;

  /// The routing counters plus every per-shard connection's.
  void add(net::ShardedPredictionClient& client);
  void add(const net::PredictionClient& client);
  ClientTotals minus(const ClientTotals& before) const;
};

/// Servers node0..node<count-1> on loopback, one reactor each, sharing one
/// static ring; each registers the traces the ring assigns it.
class Fleet {
 public:
  Fleet(int count, const ServiceConfig& service_config,
        const net::ServerConfig& server_config,
        std::span<const MachineTrace> traces);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const HashRing& ring() const { return ring_; }
  PredictionService& service_of(const std::string& node_id) const;
  net::PredictionServer& server(std::size_t index) const {
    return *nodes_[index].server;
  }

  /// A ring-routed client over the fleet (single-node workloads route
  /// through a one-member ring).
  std::unique_ptr<net::ShardedPredictionClient> client() const;

  Counters counters() const;
  std::size_t entries() const;

 private:
  struct Node {
    std::shared_ptr<PredictionService> service;
    std::unique_ptr<net::PredictionServer> server;
  };
  std::vector<Node> nodes_;
  HashRing ring_;
};

/// How the traced replay reaches the program's layers.
struct ReplaySetup {
  const Fleet* fleet = nullptr;
  TraceLookup trace_of;
  /// The ops missed the cache when served: replay estimation and the curve
  /// build per item on a fresh service instead of a warm lookup.
  bool cold = false;
  ServiceConfig cold_config{};
  /// plan_replicas is on the op's path (its live spans exist); otherwise it
  /// is timed off-path over each op's predictions.
  bool planner_on_path = false;
};

/// Per-layer timings from the replay, one entry per sampled op (per item
/// for the estimator and solver), and the layer-separation shares.
struct ReplayResult {
  std::vector<double> encode_request_us, decode_request_us;
  std::vector<double> encode_response_us, decode_response_us;
  std::vector<double> owner_ns, lookup_us, batch_ms, transport_us;
  std::vector<double> estimate_ms, curve_build_ms, plan_us;
  /// Heap bytes a fresh service holds per cached request.
  std::vector<double> bytes_per_entry;
  std::size_t planner_feasible = 0;
  std::size_t planner_replicas = 0;
  std::size_t plans = 0;
  /// Per op: estimator + solver time, in ms (cold replays only).
  std::vector<double> compute_ms;
  /// Per op: wire codec + transport over the client round trip.
  std::vector<double> wire_transport_share;
};

/// Replays each sampled op's layers in-process in pipeline order — request
/// encode and decode, HashRing::owner, the service (warm lookup, or for
/// cold ops estimation plus the AbsorptionCurves build), response encode
/// and decode — one span per call under a "replay" root sharing the op's
/// request id.
ReplayResult replay(const std::vector<SampledOp>& ops, const ReplaySetup& setup,
                    SpanRecorder& spans);

/// Everything the per-layer metric list is computed from.
struct LayerInputs {
  Counters before;
  Counters after;
  ClientTotals clients;  ///< deltas over the timed phases
  std::vector<double> lateness_ms;
  std::uint64_t ops = 0;
  double steps_per_request = 0;
  std::size_t entries = 0;
  /// Live planner calls (sharded_plan) — empty elsewhere.
  std::vector<double> live_plan_us;
  std::size_t live_feasible = 0;
  std::size_t live_replicas = 0;
  const MachineTrace* store_trace = nullptr;  ///< ≥ 16 days, 6 s period
};

/// The per-layer metrics, in BENCHMARK.json order; every workload reports
/// every one.
std::vector<Metric> layer_metrics(const LayerInputs& inputs,
                                  const ReplayResult& replayed);

/// Self time per span name (median and p99) next to the ops' median, and
/// how many planner and routing spans the run recorded.
std::vector<std::string> self_time_report(const std::vector<Span>& spans,
                                          const char* root_name);

}  // namespace fgcs::benchmark
