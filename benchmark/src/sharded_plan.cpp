// sharded_plan: replica placement over a 3-node ring. Each op probes 48
// transient VMs through a ShardedPredictionClient (three sub-batches) and
// plans the cheapest replica set meeting A = 0.99. The only workload with
// ring partitioning and planner search on its path.
#include <bit>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "core/predictor.hpp"
#include "serving.hpp"
#include "util/parallel.hpp"
#include "workload/preemption.hpp"

namespace fgcs::benchmark {

namespace {

constexpr int kVmsPerClass = 12;  // × 4 catalog classes = 48 VMs
constexpr int kDays = 21;
constexpr std::int64_t kTargetDay = kDays;
constexpr int kNodes = 3;
constexpr std::size_t kWindows = 16;
constexpr std::size_t kOrder = 4096;  // length of the seeded window sequence
constexpr PlannerConfig kPlanner{.target_availability = 0.99};

bool same_plan(const ReplicationPlan& a, const ReplicationPlan& b) {
  if (a.feasible != b.feasible || a.fallback != b.fallback ||
      std::bit_cast<std::uint64_t>(a.achieved_availability) !=
          std::bit_cast<std::uint64_t>(b.achieved_availability) ||
      std::bit_cast<std::uint64_t>(a.total_cost) !=
          std::bit_cast<std::uint64_t>(b.total_cost) ||
      a.replicas.size() != b.replicas.size())
    return false;
  for (std::size_t i = 0; i < a.replicas.size(); ++i)
    if (a.replicas[i].machine_id != b.replicas[i].machine_id) return false;
  return true;
}

class ShardedPlan final : public Workload {
 public:
  explicit ShardedPlan(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    for (const TransientVmClass& vm_class : transient_vm_catalog()) {
      PreemptionParams params = PreemptionParams::from_class(vm_class);
      params.sampling_period = 6;
      for (MachineTrace& trace :
           generate_preemption_fleet(params, seed_, kVmsPerClass, kDays,
                                     vm_class.name + "-")) {
        cost_.emplace(trace.machine_id(), vm_class.hourly_cost);
        traces_.push_back(std::move(trace));
      }
    }
    fleet_ = std::make_unique<Fleet>(kNodes, ServiceConfig{},
                                     net::ServerConfig{}, traces_);
    for (const TimeWindow& window : seeded_windows(seed_, kWindows)) {
      batches_.emplace_back();
      for (const MachineTrace& trace : traces_)
        batches_.back().push_back(
            {trace.machine_id(),
             {.target_day = kTargetDay, .window = window}});
    }
    reader_ = std::make_unique<Reader>(fleet_->client(), seed_, 64, 64);
    for (const auto& batch : batches_) reader_->client->predict_batch(batch);
    // Each block of kWindows ops visits every window once, in a seeded
    // order. Plan cost differs by window, so an uneven mix would let a time
    // slice's median flip between windows' costs from run to run.
    Rng rng(seed_ ^ 0x706c616eull);
    std::vector<std::size_t> block(kWindows);
    std::iota(block.begin(), block.end(), std::size_t{0});
    while (order_.size() < kOrder) {
      for (std::size_t i = kWindows - 1; i > 0; --i)
        std::swap(block[i], block[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i)))]);
      order_.insert(order_.end(), block.begin(), block.end());
    }
    plans_.assign(kWindows, std::nullopt);
  }

  RunResult run(double seconds, SpanRecorder* spans) override {
    RunResult result;
    const Counters before = fleet_->counters();
    ClientTotals clients_before;
    clients_before.add(*reader_->client);

    std::vector<double> plan_us;
    std::size_t feasible = 0;
    std::size_t replicas = 0;
    std::size_t mismatches = 0;
    const PhaseLog ops = run_closed_loop(
        Clock::now() + duration_of(seconds),
        [&](std::size_t i, std::uint64_t root) {
          const std::size_t window = order_[i % kOrder];
          reader_->items = batches_[window];
          const std::vector<Prediction> predictions =
              reader_->send(root, spans);
          const Clock::time_point t0 = Clock::now();
          ReplicationPlan plan =
              plan_replicas(candidates(batches_[window], predictions),
                            kPlanner);
          const Clock::time_point t1 = Clock::now();
          if (spans != nullptr) spans->leaf("planner.plan", root, root, t0, t1);
          plan_us.push_back(micros_between(t0, t1));
          feasible += plan.feasible ? 1 : 0;
          replicas += plan.replicas.size();
          if (!plans_[window])
            plans_[window] = std::move(plan);
          else if (!same_plan(*plans_[window], plan))
            ++mismatches;
          return predictions.size();
        },
        spans, "op.plan");
    book(result, ops);
    const Counters after = fleet_->counters();
    ClientTotals clients;
    clients.add(*reader_->client);
    clients = clients.minus(clients_before);

    add_latency_metrics(result, ops, ops.prediction_rate());
    result.unbounded.push_back(
        {"plans_s",
         ops.prediction_rate() / static_cast<double>(traces_.size()),
         "plans/s", "n=" + std::to_string(ops.attempted)});

    check_served(reader_->served.items(), lookup_in(traces_),
                 result.check_failures);
    if (mismatches != 0)
      result.check_failures.push_back(std::to_string(mismatches) +
                                      " plans differ between identical ops");
    check_plans(result.check_failures);
    if (clients.wrong_shard_hops != 0)
      result.check_failures.push_back("routing.wrong_shard_hops != 0");

    if (spans != nullptr) {
      const std::vector<SampledOp>& sampled = reader_->sampled.items();
      const ReplayResult replayed = replay(sampled,
                                           {.fleet = fleet_.get(),
                                            .trace_of = lookup_in(traces_),
                                            .planner_on_path = true},
                                           *spans);
      LayerInputs inputs{.before = before,
                         .after = after,
                         .clients = clients,
                         .lateness_ms = ops.lateness_ms,
                         .ops = result.attempted,
                         .steps_per_request = mean_steps(sampled),
                         .entries = fleet_->entries(),
                         .live_plan_us = plan_us,
                         .live_feasible = feasible,
                         .live_replicas = replicas,
                         .store_trace = &traces_.front()};
      result.per_layer = layer_metrics(inputs, replayed);
      result.trace_report = self_time_report(spans->spans(), "op.plan");
    }
    return result;
  }

 private:
  std::vector<ReplicaCandidate> candidates(
      const std::vector<net::WireRequestItem>& items,
      const std::vector<Prediction>& predictions) const {
    std::vector<ReplicaCandidate> out;
    out.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
      out.push_back({items[i].machine_key,
                     predictions[i].temporal_reliability,
                     cost_.at(items[i].machine_key)});
    return out;
  }

  /// Every window's served plan equals plan_replicas over in-process
  /// AvailabilityPredictor predictions.
  void check_plans(std::vector<std::string>& failures) const {
    const AvailabilityPredictor predictor;
    const TraceLookup trace_of = lookup_in(traces_);
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (!plans_[w]) continue;
      const auto& batch = batches_[w];
      std::vector<Prediction> expected(batch.size());
      parallel_for(batch.size(), [&](std::size_t i) {
        expected[i] = predictor.predict(trace_of(batch[i].machine_key),
                                        batch[i].request);
      });
      if (!same_plan(*plans_[w],
                     plan_replicas(candidates(batch, expected), kPlanner)))
        failures.push_back("plan for window " + std::to_string(w) +
                           " differs from the in-process plan");
    }
  }

  std::uint64_t seed_;
  std::vector<MachineTrace> traces_;
  std::map<std::string, double> cost_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<std::vector<net::WireRequestItem>> batches_;
  std::vector<std::size_t> order_;
  std::vector<std::optional<ReplicationPlan>> plans_;
  std::unique_ptr<Reader> reader_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded_plan(std::uint64_t seed) {
  return std::make_unique<ShardedPlan>(seed);
}

}  // namespace fgcs::benchmark
