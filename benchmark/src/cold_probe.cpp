// cold_probe: a scheduler probing its whole fleet with windows it has never
// asked about. Every request misses, so the estimator, the Eq. 3 curve
// build and the size of a cache entry set the time and the memory; the net
// layer is under 1% of a probe.
#include <cmath>
#include <set>
#include <utility>

#include "serving.hpp"
#include "stats.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs::benchmark {

namespace {

constexpr int kMachines = 32;
constexpr int kDays = 21;
constexpr std::int64_t kTargetDay = kDays;
constexpr SimTime kPeriod = 6;
constexpr std::int64_t kMinSteps = 600;   // 1 h at 6 s
constexpr std::int64_t kMaxSteps = 2400;  // 4 h
/// 16 shards × 16 entries: a cache entry holds ~270 KB of model and
/// curves, so an unbounded cache would grow past a gigabyte in one run.
constexpr std::size_t kCapacityPerShard = 16;
constexpr std::size_t kReplayOps = 12;

ServiceConfig probe_service() {
  return ServiceConfig{.capacity_per_shard = kCapacityPerShard};
}

class ColdProbe final : public Workload {
 public:
  explicit ColdProbe(std::uint64_t seed)
      : seed_(seed), rng_(seed ^ 0x70726f6265ull), weyl_(rng_.uniform()) {}

  void setup() override {
    WorkloadParams params;
    params.sampling_period = kPeriod;
    traces_ = generate_fleet(params, seed_, kMachines, kDays, "lab");
    fleet_ = std::make_unique<Fleet>(1, probe_service(), net::ServerConfig{},
                                     traces_);
    reader_ = std::make_unique<Reader>(fleet_->client(), seed_, 64,
                                       kReplayOps);
    // Connects with a midnight window, which no probe ever asks for.
    reader_->client->predict_batch(std::vector<net::WireRequestItem>{
        {traces_.front().machine_id(),
         {.target_day = kTargetDay,
          .window = {.start_of_day = 0, .length = kSecondsPerHour}}}});
  }

  RunResult run(double seconds, SpanRecorder* spans) override {
    RunResult result;
    const Counters before = fleet_->counters();
    ClientTotals clients_before;
    clients_before.add(*reader_->client);

    const PhaseLog probes = run_closed_loop(
        Clock::now() + duration_of(seconds),
        [&](std::size_t, std::uint64_t root) {
          const TimeWindow window = next_window();
          reader_->items.clear();
          for (const MachineTrace& trace : traces_)
            reader_->items.push_back(
                {trace.machine_id(),
                 {.target_day = kTargetDay, .window = window}});
          return reader_->send(root, spans).size();
        },
        spans, "op.probe");
    book(result, probes);
    const Counters after = fleet_->counters();
    ClientTotals clients;
    clients.add(*reader_->client);
    clients = clients.minus(clients_before);

    add_latency_metrics(result, probes, probes.prediction_rate());
    result.unbounded.push_back(
        {"probes", static_cast<double>(probes.attempted), "count",
         std::to_string(kMachines) + " machines each"});

    check_served(reader_->served.items(), lookup_in(traces_),
                 result.check_failures);
    if (clients.wrong_shard_hops != 0)
      result.check_failures.push_back("routing.wrong_shard_hops != 0");

    if (spans != nullptr) {
      const std::vector<SampledOp>& sampled = reader_->sampled.items();
      const ReplayResult replayed =
          replay(sampled,
                 {.fleet = fleet_.get(),
                  .trace_of = lookup_in(traces_),
                  .cold = true,
                  .cold_config = probe_service()},
                 *spans);
      LayerInputs inputs{.before = before,
                         .after = after,
                         .clients = clients,
                         .lateness_ms = probes.lateness_ms,
                         .ops = result.attempted,
                         .steps_per_request = mean_steps(sampled),
                         .entries = fleet_->entries(),
                         .store_trace = &traces_.front()};
      result.per_layer = layer_metrics(inputs, replayed);
      result.trace_report = self_time_report(spans->spans(), "op.probe");
      const double compute = median(replayed.compute_ms);
      const double probe = median(probes.latencies_ms());
      result.trace_report.push_back(
          "layer separation: estimator + solver self time per probe, "
          "median = " +
          std::to_string(compute) + " ms = " +
          std::to_string(compute / probe) +
          " of the op.probe median (want >= 0.9)");
    }
    return result;
  }

 private:
  /// A window no earlier probe used: a seeded start between 05:00 and
  /// 19:00, and a length from a Weyl sequence over 600–2400 steps, so every
  /// run of any length and seed sees the same even spread of horizons.
  TimeWindow next_window() {
    for (;;) {
      weyl_ += 0.6180339887498949;
      weyl_ -= std::floor(weyl_);
      const std::int64_t steps =
          kMinSteps + static_cast<std::int64_t>(
                          weyl_ * static_cast<double>(kMaxSteps - kMinSteps + 1));
      const SimTime start =
          rng_.uniform_int(5 * kSecondsPerHour / kPeriod,
                           19 * kSecondsPerHour / kPeriod) *
          kPeriod;
      if (used_.emplace(start, steps).second)
        return {.start_of_day = start, .length = steps * kPeriod};
    }
  }

  std::uint64_t seed_;
  Rng rng_;
  double weyl_;
  std::set<std::pair<SimTime, std::int64_t>> used_;
  std::vector<MachineTrace> traces_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<Reader> reader_;
};

}  // namespace

std::unique_ptr<Workload> make_cold_probe(std::uint64_t seed) {
  return std::make_unique<ColdProbe>(seed);
}

}  // namespace fgcs::benchmark
