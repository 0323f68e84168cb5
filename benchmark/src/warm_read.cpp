// warm_read: a monitor-style read mix over a fully warmed cache. Every
// lookup hits, so estimation and the solver do nothing; the wire, the
// transport, the pool hand-off and the cache lookup set the time.

#include "serving.hpp"
#include "stats.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs::benchmark {

namespace {

constexpr int kMachines = 16;
constexpr int kDays = 21;
constexpr std::int64_t kTargetDay = kDays;  // "tomorrow"
constexpr unsigned kConnections = 2;
constexpr double kLadder[] = {2000, 8000, 16000};
/// Share of the run each ladder step takes; the 8k step, whose latency is
/// the workload's end-to-end latency, gets the most samples.
constexpr double kStepShare[] = {0.15, 0.4, 0.15};
constexpr std::size_t kLatencyStep = 1;
constexpr double kSloMs = 1.0;
constexpr double kSaturationShare = 0.3;

/// Each connection's in-order slice of a plan.
std::vector<std::vector<const net::LoadgenOp*>> by_connection(
    const net::LoadgenPlan& plan) {
  std::vector<std::vector<const net::LoadgenOp*>> slices(kConnections);
  for (const net::LoadgenOp& op : plan.ops)
    slices[op.connection].push_back(&op);
  return slices;
}

class WarmRead final : public Workload {
 public:
  explicit WarmRead(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    WorkloadParams params;
    params.sampling_period = 6;
    traces_ = generate_fleet(params, seed_, kMachines, kDays, "lab");
    windows_ = seeded_windows(seed_, 4);
    fleet_ = std::make_unique<Fleet>(1, ServiceConfig{}, net::ServerConfig{},
                                     traces_);
    std::vector<BatchRequest> warm;
    for (const MachineTrace& trace : traces_)
      for (const TimeWindow& window : windows_)
        warm.push_back({&trace, {.target_day = kTargetDay, .window = window}});
    fleet_->service_of("node0").predict_batch(warm);
    for (unsigned c = 0; c < kConnections; ++c) {
      readers_.push_back(std::make_unique<Reader>(
          fleet_->client(), seed_ * 8 + c, /*served=*/32, /*sampled=*/32));
      readers_.back()->client->predict_batch(
          std::vector<net::WireRequestItem>{item(c, 0)});
    }
  }

  RunResult run(double seconds, SpanRecorder* spans) override {
    RunResult result;
    const Counters before = fleet_->counters();
    const ClientTotals clients_before = client_totals();

    // Saturation: both connections closed loop, cycling one seeded plan.
    const net::LoadgenPlan saturation = net::build_plan(
        read_mix(seed_, 0, 1 << 14, kConnections, kMachines, kTargetDay));
    const auto slices = by_connection(saturation);
    const Clock::time_point deadline =
        Clock::now() + duration_of(kSaturationShare * seconds);
    std::vector<std::function<PhaseLog()>> bodies;
    for (unsigned c = 0; c < kConnections; ++c)
      bodies.push_back([&, c] {
        return run_closed_loop(
            deadline,
            [&, c](std::size_t i, std::uint64_t root) {
              return send(c, *slices[c][i % slices[c].size()], root, spans);
            },
            spans, "op.read");
      });
    PhaseLog saturated;
    for (const PhaseLog& log : run_concurrently(bodies)) saturated.merge(log);
    book(result, saturated);

    // Open-loop ladder, the same mix at fixed offered rates.
    std::vector<PhaseLog> steps;
    std::vector<double> offered;  // the plans' own rates: ops / horizon
    for (std::size_t s = 0; s < std::size(kLadder); ++s) {
      const auto ops = static_cast<std::size_t>(kLadder[s] * kStepShare[s] *
                                                seconds);
      const net::LoadgenPlan plan = net::build_plan(read_mix(
          seed_ + s + 1, kLadder[s], ops, kConnections, kMachines,
          kTargetDay));
      offered.push_back(static_cast<double>(ops) / plan.horizon);
      const auto step_slices = by_connection(plan);
      const Clock::time_point start =
          Clock::now() + std::chrono::milliseconds(5);
      std::vector<std::function<PhaseLog()>> step_bodies;
      for (unsigned c = 0; c < kConnections; ++c)
        step_bodies.push_back([&, c] {
          std::vector<double> schedule;
          for (const net::LoadgenOp* op : step_slices[c])
            schedule.push_back(op->scheduled);
          return run_open_loop(
              start, schedule,
              [&, c](std::size_t i, std::uint64_t root) {
                return send(c, *step_slices[c][i], root, spans);
              },
              spans, "op.read");
        });
      PhaseLog step;
      for (const PhaseLog& log : run_concurrently(step_bodies))
        step.merge(log);
      book(result, step);
      steps.push_back(std::move(step));
    }
    const Counters after = fleet_->counters();
    const ClientTotals clients = client_totals().minus(clients_before);

    add_latency_metrics(result, steps[kLatencyStep],
                        saturated.prediction_rate());
    double slo_rate = 0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const double p99 = steps[s].sliced_percentile(990);
      const double achieved =
          static_cast<double>(steps[s].attempted - steps[s].failed) /
          steps[s].seconds();
      const std::string prefix =
          "ladder." + std::to_string(static_cast<int>(kLadder[s]));
      result.unbounded.push_back(
          {prefix + ".p99_ms", p99, "ms",
           "n=" + std::to_string(steps[s].completions.size())});
      result.unbounded.push_back(
          {prefix + ".achieved_ops_s", achieved, "ops/s", ""});
      if (p99 <= kSloMs && achieved >= 0.99 * offered[s] &&
          steps[s].failed == 0)
        slo_rate = kLadder[s];
    }
    result.unbounded.insert(
        result.unbounded.begin(),
        {"max_rate_under_slo_ops_s", slo_rate, "ops/s",
         "p99 <= 1 ms, >= 99% achieved, no failures"});

    std::vector<ServedSample> served;
    for (const auto& reader : readers_)
      served.insert(served.end(), reader->served.items().begin(),
                    reader->served.items().end());
    check_served(served, lookup_in(traces_), result.check_failures);
    if (clients.wrong_shard_hops != 0)
      result.check_failures.push_back("routing.wrong_shard_hops != 0");

    if (spans != nullptr) {
      std::vector<SampledOp> sampled;
      for (const auto& reader : readers_)
        sampled.insert(sampled.end(), reader->sampled.items().begin(),
                       reader->sampled.items().end());
      const ReplayResult replayed = replay(
          sampled, {.fleet = fleet_.get(), .trace_of = lookup_in(traces_)},
          *spans);
      LayerInputs inputs{.before = before,
                         .after = after,
                         .clients = clients,
                         .ops = result.attempted,
                         .steps_per_request = mean_steps(sampled),
                         .entries = fleet_->entries(),
                         .store_trace = &traces_.front()};
      for (const PhaseLog& step : steps)
        inputs.lateness_ms.insert(inputs.lateness_ms.end(),
                                  step.lateness_ms.begin(),
                                  step.lateness_ms.end());
      result.per_layer = layer_metrics(inputs, replayed);
      result.trace_report = self_time_report(spans->spans(), "op.read");
      const std::uint64_t misses = after.service.misses - before.service.misses;
      result.trace_report.push_back(
          "layer separation: service.misses during timed phases = " +
          std::to_string(misses) + " (want 0); wire + transport share of "
          "the client round trip, median = " +
          std::to_string(median(replayed.wire_transport_share)) +
          " (want > 0.5)");
    }
    return result;
  }

 private:
  net::WireRequestItem item(std::size_t key, std::size_t window) const {
    return {.machine_key = traces_[key].machine_id(),
            .request = {.target_day = kTargetDay, .window = windows_[window]}};
  }

  std::size_t send(unsigned connection, const net::LoadgenOp& op,
                   std::uint64_t root, SpanRecorder* spans) {
    Reader& reader = *readers_[connection];
    reader.items.clear();
    for (const std::uint32_t key : op.keys)
      reader.items.push_back(item(key, op.window));
    return reader.send(root, spans).size();
  }

  ClientTotals client_totals() const {
    ClientTotals totals;
    for (const auto& reader : readers_) totals.add(*reader->client);
    return totals;
  }

  std::uint64_t seed_;
  std::vector<MachineTrace> traces_;
  std::vector<TimeWindow> windows_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<std::unique_ptr<Reader>> readers_;
};

}  // namespace

std::unique_ptr<Workload> make_warm_read(std::uint64_t seed) {
  return std::make_unique<WarmRead>(seed);
}

}  // namespace fgcs::benchmark
