// Chaos suite for the streaming ingest path: seed-pinned ingest.append.drop /
// ingest.rollup.fail storms (plus the transport storm underneath) against a
// real loopback ingest server. The invariants: the client's idempotent
// whole-frame retries must converge, the server's rolled-up history must end
// byte-equal to the source trace, the cache generation must equal the days
// closed (no double-bumps from retried closes), served predictions over the
// streamed history stay bit-identical. That identical storms replay to
// identical reports is the chaos_replay_ingest* ctest rows' gate, across
// processes.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chaos_support.hpp"
#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "trace/trace_store.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;

class IngestChaosTest : public ChaosTest {
 protected:
  /// Starts a loopback *ingest* server (no preloaded traces). Call after
  /// arming failpoints — drops and rollup failures are consulted live.
  void start(int machines = 3, int days = 6, unsigned reactors = 1,
             std::int64_t retention = 0) {
    for (int m = 0; m < machines; ++m)
      fleet_.push_back(
          m % 2 == 0
              ? test::flaky_trace("m" + std::to_string(m), days)
              : test::steady_trace("m" + std::to_string(m), days));
    service_ = std::make_shared<PredictionService>();
    net::ServerConfig config;
    config.ingest = true;
    config.ingest_retention_days = retention;
    config.reactors = reactors;
    server_ = std::make_unique<net::PredictionServer>(config, service_);
    server_->start();

    net::ClientConfig client_config;
    client_config.port = server_->port();
    client_config.max_attempts = 16;
    client_config.backoff.retry_delay = 2;       // ms
    client_config.backoff.backoff_factor = 1.0;  // exact, jitter-free pacing
    client_config.backoff.max_retry_delay = 50;
    client_ = std::make_unique<net::PredictionClient>(client_config);
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->stop();
    ChaosTest::TearDown();
  }

  /// Streams a whole trace in `batch`-sample frames through whatever storm
  /// is armed, relying on the client's idempotent retry loop.
  net::WireAppendAck stream(const MachineTrace& trace, std::size_t batch) {
    net::WireAppendRequest request;
    request.machine_id = trace.machine_id();
    request.epoch_day_of_week =
        static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
    request.sampling_period = trace.sampling_period();
    request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
    const std::size_t per_day = trace.samples_per_day();
    const std::uint64_t total =
        static_cast<std::uint64_t>(trace.day_count()) * per_day;
    net::WireAppendAck totals;
    std::uint64_t index = 0;
    while (index < total) {
      const std::uint64_t count = std::min<std::uint64_t>(batch, total - index);
      request.first_sample_index = index;
      request.samples.clear();
      for (std::uint64_t i = index; i < index + count; ++i)
        request.samples.push_back(
            trace.at(static_cast<std::int64_t>(i / per_day), i % per_day));
      const net::WireAppendAck ack = client_->append_samples(request);
      totals.accepted += ack.accepted;
      totals.duplicates += ack.duplicates;
      totals.days_closed += ack.days_closed;
      totals.days_retired += ack.days_retired;
      totals.next_index = ack.next_index;
      totals.generation = ack.generation;
      index = ack.next_index;
    }
    return totals;
  }

  /// The streamed history must be byte-equal to the source trace.
  void expect_history_identical(const MachineTrace& trace) {
    const std::shared_ptr<const MachineTrace> snap =
        server_->store()->snapshot(trace.machine_id());
    ASSERT_NE(snap, nullptr) << trace.machine_id();
    ASSERT_EQ(snap->day_count(), trace.day_count()) << trace.machine_id();
    const std::size_t per_day = trace.samples_per_day();
    for (std::int64_t d = 0; d < trace.day_count(); ++d)
      for (std::size_t i = 0; i < per_day; ++i)
        ASSERT_TRUE(snap->at(d, i) == trace.at(d, i))
            << trace.machine_id() << " day " << d << " sample " << i;
  }

  std::vector<MachineTrace> fleet_;
  std::shared_ptr<PredictionService> service_;
  std::unique_ptr<net::PredictionServer> server_;
  std::unique_ptr<net::PredictionClient> client_;
};

TEST_F(IngestChaosTest, AppendDropStormRetriesToIdenticalHistory) {
  // A third of the append frames are rejected (retryable, connection kept)
  // before the server even decodes them. The idempotent retry must land
  // every sample exactly once — no duplicates in the rollup, generation ==
  // days closed.
  Failpoints::instance().arm_from_spec("ingest.append.drop=prob:0.33:20060619");
  start();
  for (const MachineTrace& trace : fleet_) {
    const net::WireAppendAck totals =
        stream(trace, trace.samples_per_day() / 2 + 7);
    EXPECT_EQ(totals.accepted,
              static_cast<std::uint64_t>(trace.day_count()) *
                  trace.samples_per_day());
    EXPECT_EQ(totals.duplicates, 0u);  // drops reject whole frames pre-append
    EXPECT_EQ(totals.generation,
              static_cast<std::uint64_t>(trace.day_count()));
    expect_history_identical(trace);
  }
  EXPECT_GT(Failpoints::instance().stats().find("ingest.append.drop")->fires,
            0u);
  EXPECT_GT(client_->stats().retries, 0u);
  server_->stop();
  EXPECT_GT(server_->stats().errors, 0u);
  EXPECT_EQ(server_->stats().append_duplicates, 0u);
}

TEST_F(IngestChaosTest, RollupFailuresNeverWedgeOrDoubleCountADay) {
  // Every third day-close throws RollupError mid-append. The client retries
  // the whole frame: already-buffered samples dedup, the pending close is
  // re-attempted, and each day still closes exactly once (generation would
  // drift otherwise).
  Failpoints::instance().arm_from_spec("ingest.rollup.fail=every:3");
  start();
  for (const MachineTrace& trace : fleet_) {
    const net::WireAppendAck totals = stream(trace, trace.samples_per_day());
    EXPECT_EQ(totals.generation,
              static_cast<std::uint64_t>(trace.day_count()))
        << trace.machine_id();
    EXPECT_GT(totals.duplicates, 0u);  // the retried frames dedup
    expect_history_identical(trace);
    EXPECT_EQ(service_->history_generation(trace.machine_id()),
              static_cast<std::uint64_t>(trace.day_count()));
  }
  EXPECT_GT(Failpoints::instance().stats().find("ingest.rollup.fail")->fires,
            0u);
  EXPECT_GT(client_->stats().retries, 0u);
}

TEST_F(IngestChaosTest, CombinedStormUnderRetentionStillServesExactly) {
  // Drops + rollup failures + frame corruption, against a 4-day sliding
  // window. After the storm the server holds exactly the last 4 days and
  // serves predictions on them bit-identically to the local stack.
  Failpoints::instance().arm_from_spec(
      "ingest.append.drop=prob:0.25:77;ingest.rollup.fail=every:4;"
      "net.frame.corrupt=prob:0.1:77");
  start(/*machines=*/2, /*days=*/6, /*reactors=*/1, /*retention=*/4);
  for (const MachineTrace& trace : fleet_) {
    const net::WireAppendAck totals =
        stream(trace, trace.samples_per_day() + 13);
    EXPECT_EQ(totals.days_retired, 2u) << trace.machine_id();
    const MachineTrace sliced = trace.slice(2, trace.day_count());
    const std::shared_ptr<const MachineTrace> snap =
        server_->store()->snapshot(trace.machine_id());
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->day_count(), 4);
    for (std::int64_t d = 0; d < 4; ++d)
      for (std::size_t i = 0; i < trace.samples_per_day(); ++i)
        ASSERT_TRUE(snap->at(d, i) == sliced.at(d, i));

    const net::WireRequestItem item{
        .machine_key = trace.machine_id(),
        .request = {.target_day = 4,
                    .window = {.start_of_day = 9 * kSecondsPerHour,
                               .length = 2 * kSecondsPerHour}}};
    const Prediction served = client_->predict(item);
    const Prediction want = AvailabilityPredictor().predict(sliced, item.request);
    EXPECT_EQ(std::memcmp(&served.temporal_reliability,
                          &want.temporal_reliability, sizeof(double)),
              0)
        << trace.machine_id();
  }
}

TEST_F(IngestChaosTest, MultiReactorStormKeepsPerReactorAccounting) {
  // The same storm against a sharded 4-reactor ingest server: the global
  // snapshot must still equal the sum of the per-reactor splits (ingest
  // counters ride the serving reactor's inbox, never the store), and the
  // histories must still converge byte-identically.
  Failpoints::instance().arm_from_spec(
      "ingest.append.drop=prob:0.3:31337;net.accept.drop=every:4");
  start(/*machines=*/3, /*days=*/5, /*reactors=*/4);
  for (const MachineTrace& trace : fleet_) {
    stream(trace, trace.samples_per_day() * 2 + 5);
    expect_history_identical(trace);
  }
  server_->stop();
  const net::ServerStats total = server_->stats();
  net::ServerStats summed;
  for (const net::ServerStats& reactor : server_->reactor_stats())
    summed += reactor;
  EXPECT_EQ(summed.appends, total.appends);
  EXPECT_EQ(summed.append_samples, total.append_samples);
  EXPECT_EQ(summed.append_duplicates, total.append_duplicates);
  EXPECT_EQ(summed.days_closed, total.days_closed);
  EXPECT_EQ(summed.days_retired, total.days_retired);
  EXPECT_EQ(total.days_closed, 3u * 5u);
  EXPECT_EQ(total.append_samples,
            3u * 5u * fleet_.front().samples_per_day());
}

}  // namespace
}  // namespace fgcs
