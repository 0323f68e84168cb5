// Chaos suite for the network path: seed-pinned failpoint storms against a
// real loopback PredictionServer. The invariants are the differential gate's,
// under fire: whatever net.frame.corrupt / net.read.short / net.write.stall /
// net.accept.drop do to the transport, the client's retry loop must converge
// and every delivered Prediction must be bit-identical to the in-process
// predictor. Because every injection site is evaluated at a deterministic
// point (per accepted connection, per frame — never per read()/write()), an
// identical storm replays to an identical report; the chaos_replay_net*
// ctest rows gate that across processes.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "chaos_support.hpp"
#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;

class NetChaosTest : public ChaosTest {
 protected:
  /// Starts a loopback server over fresh traces. Call *after* arming
  /// failpoints: net.accept.drop and friends are consulted live.
  void start(int machines = 3, int days = 8) {
    for (int m = 0; m < machines; ++m)
      fleet_.push_back(m % 2 == 0
                           ? test::flaky_trace("m" + std::to_string(m), days)
                           : test::steady_trace("m" + std::to_string(m), days));
    server_ = std::make_unique<net::PredictionServer>(
        net::ServerConfig{}, std::make_shared<PredictionService>());
    for (const MachineTrace& trace : fleet_) server_->add_trace(trace);
    server_->start();

    net::ClientConfig config;
    config.port = server_->port();
    config.max_attempts = 12;
    config.backoff.retry_delay = 2;       // ms
    config.backoff.backoff_factor = 1.0;  // exact, jitter-free pacing
    config.backoff.max_retry_delay = 50;
    client_ = std::make_unique<net::PredictionClient>(config);
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->stop();
    ChaosTest::TearDown();
  }

  net::WireRequestItem item_for(int machine, int start_hour,
                                int hours = 2) const {
    return net::WireRequestItem{
        .machine_key = fleet_[static_cast<std::size_t>(machine)].machine_id(),
        .request = {
            .target_day = fleet_.front().day_count(),
            .window = {.start_of_day = start_hour * kSecondsPerHour,
                       .length = hours * kSecondsPerHour}}};
  }

  /// Drives `rounds` single-item requests through the storm and checks each
  /// against the uncached predictor, bitwise.
  void expect_bit_identical_rounds(int rounds) {
    const AvailabilityPredictor reference;
    for (int round = 0; round < rounds; ++round) {
      const int machine = round % static_cast<int>(fleet_.size());
      const net::WireRequestItem item = item_for(machine, 8 + round % 12);
      const Prediction served = client_->predict(item);
      const Prediction want = reference.predict(
          fleet_[static_cast<std::size_t>(machine)], item.request);
      EXPECT_EQ(std::memcmp(&served.temporal_reliability,
                            &want.temporal_reliability, sizeof(double)),
                0)
          << "round " << round;
      EXPECT_EQ(std::memcmp(served.p_absorb.data(), want.p_absorb.data(),
                            sizeof(served.p_absorb)),
                0)
          << "round " << round;
      EXPECT_EQ(served.initial_state, want.initial_state) << "round " << round;
      EXPECT_EQ(served.steps, want.steps) << "round " << round;
    }
  }

  std::vector<MachineTrace> fleet_;
  std::unique_ptr<net::PredictionServer> server_;
  std::unique_ptr<net::PredictionClient> client_;
};

TEST_F(NetChaosTest, FrameCorruptionStormRetriesToBitIdenticalCompletion) {
  // Half the frames the server handles are corrupted before processing; the
  // client sees checksum desyncs, reconnects, and must still deliver exact
  // answers for every round.
  Failpoints::instance().arm_from_spec("net.frame.corrupt=prob:0.5:424242");
  start();
  expect_bit_identical_rounds(24);

  EXPECT_GT(Failpoints::instance().stats().find("net.frame.corrupt")->fires,
            0u);
  EXPECT_GT(client_->stats().retries, 0u);
  EXPECT_EQ(client_->stats().batches, 24u);
  server_->stop();  // join, so the snapshot below is exact
  EXPECT_GT(server_->stats().errors, 0u);
  EXPECT_EQ(server_->stats().predictions, 24u);
}

TEST_F(NetChaosTest, ShortReadsAndStalledWritesOnlySlowTheBytesDown) {
  // Every connection trickles: reads capped to 3 bytes, writes to 16. No
  // frame is ever damaged, so no retry is allowed either — the transport is
  // slow, not wrong.
  Failpoints::instance().arm_from_spec(
      "net.read.short=every:1;net.write.stall=every:1");
  start();
  expect_bit_identical_rounds(6);

  EXPECT_GT(Failpoints::instance().stats().find("net.read.short")->fires, 0u);
  EXPECT_GT(Failpoints::instance().stats().find("net.write.stall")->fires, 0u);
  EXPECT_EQ(client_->stats().retries, 0u);
  server_->stop();
  EXPECT_EQ(server_->stats().errors, 0u);
}

TEST_F(NetChaosTest, AcceptDropStormForcesReconnectsNotWrongAnswers) {
  // Every other accepted connection is closed on the spot; the client's next
  // write or read fails and the whole idempotent batch is resent. Dropping
  // the client socket between rounds forces a fresh accept per round, so the
  // every:2 trigger actually cycles.
  Failpoints::instance().arm_from_spec("net.accept.drop=every:2");
  start();
  const AvailabilityPredictor reference;
  for (int round = 0; round < 8; ++round) {
    client_->close();
    const int machine = round % static_cast<int>(fleet_.size());
    const net::WireRequestItem item = item_for(machine, 8 + round);
    const Prediction served = client_->predict(item);
    const Prediction want = reference.predict(
        fleet_[static_cast<std::size_t>(machine)], item.request);
    EXPECT_EQ(std::memcmp(&served.temporal_reliability,
                          &want.temporal_reliability, sizeof(double)),
              0)
        << "round " << round;
  }

  server_->stop();
  EXPECT_GT(server_->stats().dropped, 0u);
  EXPECT_GT(client_->stats().reconnects, 1u);
  EXPECT_GT(client_->stats().retries, 0u);
}

}  // namespace
}  // namespace fgcs
