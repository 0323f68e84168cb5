// ingest_mixed: monitors stream samples while a reader keeps asking. Day
// closes roll traces forward and invalidate their machines, so reads after
// a close miss and re-estimate. The only workload that exercises TraceStore
// rollup, retention and cache invalidation.
#include <map>

#include "serving.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs::benchmark {

namespace {

constexpr int kMachines = 16;
constexpr std::int64_t kHistoryDays = 14;  // seeded history and retention
constexpr std::int64_t kTargetDay = kHistoryDays;
constexpr std::size_t kChunk = 600;        // samples per append: one hour
constexpr double kAppendRate = 400;
constexpr double kReadRate = 1000;
constexpr std::size_t kChecks = 64;
/// Every read window is 2 h long. A day close makes its machine's next
/// reads miss, and one connection queues behind each miss; with 1–4 h
/// windows a miss costs 0.4–10 ms and the queue tail swung by a factor of
/// two between runs of one seed. Equal windows keep the miss cost, and so
/// the tail, the same for every seed.
constexpr std::int64_t kWindowMinutes = 120;

class IngestMixed final : public Workload {
 public:
  IngestMixed(std::uint64_t seed, double seconds)
      : seed_(seed),
        appends_(static_cast<std::size_t>(kAppendRate * seconds)),
        reads_(static_cast<std::size_t>(kReadRate * seconds)) {}

  void setup() override {
    const std::size_t per_machine = (appends_ + kMachines - 1) / kMachines;
    const int stream_days = static_cast<int>(
        (offset(kMachines - 1) + per_machine * kChunk) / kPerDay + 2);
    WorkloadParams params;
    params.sampling_period = 6;
    traces_ = generate_fleet(params, seed_, kMachines,
                             static_cast<int>(kHistoryDays) + stream_days,
                             "lab");
    fleet_ = std::make_unique<Fleet>(
        1, ServiceConfig{},
        net::ServerConfig{.ingest = true,
                          .ingest_retention_days = kHistoryDays},
        std::span<const MachineTrace>{});
    TraceStore& store = *fleet_->server(0).store();
    for (const MachineTrace& trace : traces_)
      store.adopt_trace(trace.slice(0, kHistoryDays));
    windows_ = seeded_windows(seed_, 4, kWindowMinutes, kWindowMinutes);

    std::vector<std::shared_ptr<const MachineTrace>> pins;
    std::vector<BatchRequest> warm;
    for (const MachineTrace& trace : traces_) {
      pins.push_back(store.snapshot(trace.machine_id()));
      for (const TimeWindow& window : windows_)
        warm.push_back(
            {pins.back().get(), {.target_day = kTargetDay, .window = window}});
    }
    fleet_->service_of("node0").predict_batch(warm);

    // Each monitor starts its stream 1/16 of a day further into the day,
    // so day closes arrive evenly through the run rather than all sixteen
    // machines closing within one burst of round-robin appends.
    writer_ = std::make_unique<net::PredictionClient>(net::ClientConfig{
        .host = "127.0.0.1", .port = fleet_->server(0).port()});
    for (int m = 1; m < kMachines; ++m)
      writer_->append_samples(
          request(static_cast<std::size_t>(m), kFirstIndex, offset(m)));
    for (std::size_t i = 0; i < appends_; ++i) stream_.push_back(append(i));
    reader_ = std::make_unique<Reader>(fleet_->client(), seed_, 1, 64);
    reader_->client->predict_batch(
        std::vector<net::WireRequestItem>{item(0, 0)});
  }

  RunResult run(double seconds, SpanRecorder* spans) override {
    (void)seconds;  // sized at construction
    RunResult result;
    const Counters before = fleet_->counters();
    const ClientTotals clients_before = client_totals();
    const net::LoadgenPlan plan = net::build_plan(
        read_mix(seed_, kReadRate, reads_, 1, kMachines, kTargetDay));
    std::vector<double> read_schedule;
    for (const net::LoadgenOp& op : plan.ops)
      read_schedule.push_back(op.scheduled);
    const std::vector<double> append_schedule =
        poisson_schedule(seed_ ^ 0x696e67657374ull, kAppendRate, appends_);

    std::uint64_t days_closed = 0;
    std::uint64_t duplicates = 0;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const std::vector<PhaseLog> logs = run_concurrently(
        {[&] {
           return run_open_loop(
               start, append_schedule,
               [&](std::size_t i, std::uint64_t root) -> std::size_t {
                 const Clock::time_point t0 = Clock::now();
                 const net::WireAppendAck ack =
                     writer_->append_samples(stream_[i]);
                 if (spans != nullptr)
                   spans->leaf("client.append_samples", root, root, t0,
                               Clock::now());
                 days_closed += ack.days_closed;
                 duplicates += ack.duplicates;
                 return 0;
               },
               spans, "op.append");
         },
         [&] {
           return run_open_loop(
               start, read_schedule,
               [&](std::size_t i, std::uint64_t root) {
                 reader_->items.clear();
                 for (const std::uint32_t key : plan.ops[i].keys)
                   reader_->items.push_back(item(key, plan.ops[i].window));
                 return reader_->send(root, spans).size();
               },
               spans, "op.read");
         }});
    const PhaseLog& appends = logs[0];
    const PhaseLog& reads = logs[1];
    book(result, appends);
    book(result, reads);
    const Counters after = fleet_->counters();
    const ClientTotals clients = client_totals().minus(clients_before);

    add_latency_metrics(result, reads, reads.prediction_rate());
    const std::string appends_note =
        "n=" + std::to_string(appends.completions.size());
    result.unbounded.insert(result.unbounded.end(), {
        {"append_p50_ms", appends.sliced_percentile(500), "ms", appends_note},
        {"append_p99_ms", appends.sliced_percentile(990), "ms", appends_note},
        {"appends_s",
         static_cast<double>(appends.attempted - appends.failed) /
             appends.seconds(),
         "appends/s", ""},
        {"days_closed", static_cast<double>(days_closed), "count", ""}});

    check_store(days_closed, duplicates, after.server.append_duplicates -
                                             before.server.append_duplicates,
                result.check_failures);
    check_reads(result.check_failures);

    if (spans != nullptr) {
      const std::vector<SampledOp>& sampled = reader_->sampled.items();
      const ReplayResult replayed = replay(
          sampled, {.fleet = fleet_.get(), .trace_of = snapshots()},
          *spans);
      LayerInputs inputs{.before = before,
                         .after = after,
                         .clients = clients,
                         .lateness_ms = reads.lateness_ms,
                         .ops = result.attempted,
                         .steps_per_request = mean_steps(sampled),
                         .entries = fleet_->entries(),
                         .store_trace = &traces_.front()};
      inputs.lateness_ms.insert(inputs.lateness_ms.end(),
                                appends.lateness_ms.begin(),
                                appends.lateness_ms.end());
      result.per_layer = layer_metrics(inputs, replayed);
      result.trace_report = self_time_report(spans->spans(), "op.read");
    }
    return result;
  }

 private:
  static constexpr std::size_t kPerDay = 14400;  // 6 s samples

  static constexpr std::size_t kFirstIndex =
      static_cast<std::size_t>(kHistoryDays) * kPerDay;

  /// Samples machine m streams before the timed run.
  static std::size_t offset(int m) {
    return static_cast<std::size_t>(m) * (kPerDay / kMachines);
  }

  /// Samples [first, first + count) of machine m's trace as one append.
  net::WireAppendRequest request(std::size_t m, std::size_t first,
                                 std::size_t count) const {
    const MachineTrace& trace = traces_[m];
    net::WireAppendRequest request;
    request.machine_id = trace.machine_id();
    request.epoch_day_of_week =
        static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
    request.sampling_period = trace.sampling_period();
    request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
    request.first_sample_index = first;
    for (std::size_t s = first; s < first + count; ++s)
      request.samples.push_back(trace.at(static_cast<std::int64_t>(s / kPerDay),
                                         s % kPerDay));
    return request;
  }

  /// Append i of the timed stream: machines round-robin, each continuing
  /// its own history one hour at a time.
  net::WireAppendRequest append(std::size_t i) const {
    const std::size_t m = i % kMachines;
    return request(m,
                   kFirstIndex + offset(static_cast<int>(m)) +
                       (i / kMachines) * kChunk,
                   kChunk);
  }

  net::WireRequestItem item(std::size_t key, std::size_t window) const {
    return {.machine_key = traces_[key].machine_id(),
            .request = {.target_day = kTargetDay, .window = windows_[window]}};
  }

  /// After the last ack: every machine holds exactly the history the
  /// schedule sent, no sample arrived twice, and the store closed exactly
  /// the days the schedule completes.
  void check_store(std::uint64_t days_closed, std::uint64_t ack_duplicates,
                   std::uint64_t server_duplicates,
                   std::vector<std::string>& failures) const {
    const TraceStore& store = *fleet_->server(0).store();
    std::uint64_t expected_closes = 0;
    for (int m = 0; m < kMachines; ++m) {
      const std::size_t chunks =
          (appends_ + kMachines - 1 - static_cast<std::size_t>(m)) / kMachines;
      const std::size_t streamed = offset(m) + chunks * kChunk;
      expected_closes += streamed / kPerDay;
      const std::string& id = traces_[static_cast<std::size_t>(m)].machine_id();
      const std::uint64_t want = kFirstIndex + streamed;
      if (store.next_index(id) != want)
        failures.push_back(id + ": next_index " +
                           std::to_string(store.next_index(id)) + " != " +
                           std::to_string(want));
      if (store.snapshot(id)->day_count() != kHistoryDays)
        failures.push_back(id + ": retention did not hold 14 days");
    }
    if (days_closed != expected_closes)
      failures.push_back("store.days_closed " + std::to_string(days_closed) +
                         " != " + std::to_string(expected_closes) +
                         " from the schedule");
    if (ack_duplicates != 0 || server_duplicates != 0)
      failures.push_back("store.duplicates != 0");
  }

  /// 64 seeded reads served after the last ack, against the store's
  /// current snapshots.
  void check_reads(std::vector<std::string>& failures) const {
    Rng rng(seed_ ^ 0x636865636bull);
    std::vector<ServedSample> samples;
    for (std::size_t k = 0; k < kChecks; ++k) {
      const net::WireRequestItem read =
          item(static_cast<std::size_t>(rng.uniform_int(0, kMachines - 1)),
               static_cast<std::size_t>(rng.uniform_int(0, 3)));
      const std::vector<net::WireRequestItem> one{read};
      samples.push_back({read, reader_->client->predict_batch(one).front()});
    }
    check_served(samples, snapshots(), failures);
  }

  /// Finds the store's current snapshot of each machine, pinned when the
  /// lookup is made.
  TraceLookup snapshots() const {
    std::map<std::string, std::shared_ptr<const MachineTrace>> pins;
    for (const MachineTrace& trace : traces_)
      pins.emplace(trace.machine_id(),
                   fleet_->server(0).store()->snapshot(trace.machine_id()));
    return [pins = std::move(pins)](const std::string& id)
               -> const MachineTrace& { return *pins.at(id); };
  }

  ClientTotals client_totals() const {
    ClientTotals totals;
    totals.add(*reader_->client);
    totals.add(*writer_);
    return totals;
  }

  std::uint64_t seed_;
  std::size_t appends_;
  std::size_t reads_;
  std::vector<MachineTrace> traces_;
  std::vector<TimeWindow> windows_;
  std::vector<net::WireAppendRequest> stream_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<net::PredictionClient> writer_;
  std::unique_ptr<Reader> reader_;
};

}  // namespace

std::unique_ptr<Workload> make_ingest_mixed(std::uint64_t seed,
                                            double seconds) {
  return std::make_unique<IngestMixed>(seed, seconds);
}

}  // namespace fgcs::benchmark
