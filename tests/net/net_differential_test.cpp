// Differential gate: the 128 golden-fixture rows (tests/golden/golden_tr.csv)
// served through a loopback PredictionServer must be *bit-identical* — exact
// double equality, no tolerance — to the in-process prediction stack, on a
// cold cache and again warm. This pins the whole network path (encode →
// frame → epoll server → PredictionService fan-out → encode → client decode)
// to the same numbers the golden suite already pins for the in-process path;
// the CSV's own values are cross-checked at the fixture's 1e-12 tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/error.hpp"
#include "workload/trace_generator.hpp"

#ifndef FGCS_GOLDEN_CSV
#error "build must define FGCS_GOLDEN_CSV (path to tests/golden/golden_tr.csv)"
#endif

namespace fgcs::net {
namespace {

struct GoldenRow {
  std::string machine;
  std::int64_t target_day = 0;
  SimTime window_start = 0;
  SimTime window_length = 0;
  double tr = 0.0;
};

std::vector<GoldenRow> load_fixture() {
  std::ifstream in(FGCS_GOLDEN_CSV);
  if (!in) throw DataError("cannot open fixture " FGCS_GOLDEN_CSV);
  std::vector<GoldenRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    GoldenRow row;
    std::string cell;
    std::getline(fields, row.machine, ',');
    std::getline(fields, cell, ',');
    row.target_day = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.window_start = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.window_length = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.tr = std::strtod(cell.c_str(), nullptr);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The same pinned fleet fgcs_golden computes its fixture from.
std::vector<MachineTrace> golden_fleet() {
  WorkloadParams params;
  params.sampling_period = 60;
  return generate_fleet(params, /*seed=*/20060619, /*count=*/4, /*days=*/30,
                        "golden");
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Parameterized over the server's reactor count: the acceptance gate is
/// that the golden rows serve bit-identically through the original
/// single-reactor path (1) *and* the sharded multi-reactor path (4).
class NetDifferentialTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    rows_ = load_fixture();
    ASSERT_EQ(rows_.size(), 128u) << "golden grid changed; update this test";
    fleet_ = golden_fleet();
    for (const MachineTrace& trace : fleet_)
      by_id_.emplace(trace.machine_id(), &trace);

    ServerConfig server_config;
    server_config.reactors = GetParam();
    server_ = std::make_unique<PredictionServer>(
        server_config, std::make_shared<PredictionService>());
    for (const MachineTrace& trace : fleet_) server_->add_trace(trace);
    server_->start();

    ClientConfig config;
    config.port = server_->port();
    client_ = std::make_unique<PredictionClient>(config);
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->stop();
  }

  WireRequestItem wire_item(const GoldenRow& row) const {
    return WireRequestItem{
        .machine_key = row.machine,
        .request = {.target_day = row.target_day,
                    .window = {.start_of_day = row.window_start,
                               .length = row.window_length},
                    .initial_state = std::nullopt}};
  }

  std::vector<GoldenRow> rows_;
  std::vector<MachineTrace> fleet_;
  std::map<std::string, const MachineTrace*> by_id_;
  std::unique_ptr<PredictionServer> server_;
  std::unique_ptr<PredictionClient> client_;
};

TEST_P(NetDifferentialTest, AllGoldenRowsServeBitIdenticalColdAndWarm) {
  // In-process reference: the uncached predictor, computed once per row.
  const AvailabilityPredictor reference;
  std::vector<Prediction> expected;
  std::vector<WireRequestItem> items;
  for (const GoldenRow& row : rows_) {
    items.push_back(wire_item(row));
    expected.push_back(
        reference.predict(*by_id_.at(row.machine), items.back().request));
  }

  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    const std::vector<Prediction> served = client_->predict_batch(items);
    ASSERT_EQ(served.size(), rows_.size());
    std::size_t exact = 0;
    for (std::size_t i = 0; i < served.size(); ++i) {
      // The gate: exact equality of the served bits with the in-process
      // bits. EXPECT_EQ on doubles would also pass for -0.0 vs 0.0; bit
      // comparison is the stricter (and intended) contract.
      EXPECT_TRUE(same_bits(served[i].temporal_reliability,
                            expected[i].temporal_reliability))
          << rows_[i].machine << " day " << rows_[i].target_day << " start "
          << rows_[i].window_start << " len " << rows_[i].window_length
          << ": served " << served[i].temporal_reliability << " != local "
          << expected[i].temporal_reliability;
      for (std::size_t k = 0; k < 3; ++k)
        EXPECT_TRUE(
            same_bits(served[i].p_absorb[k], expected[i].p_absorb[k]));
      EXPECT_EQ(served[i].initial_state, expected[i].initial_state);
      EXPECT_EQ(served[i].training_days_used, expected[i].training_days_used);
      EXPECT_EQ(served[i].steps, expected[i].steps);
      // The committed fixture agrees at its own (platform-drift) tolerance.
      EXPECT_LE(std::fabs(served[i].temporal_reliability - rows_[i].tr),
                1e-12);
      exact += same_bits(served[i].temporal_reliability,
                         expected[i].temporal_reliability);
    }
    EXPECT_EQ(exact, rows_.size());
  }
}

TEST_P(NetDifferentialTest, SingleRequestFormMatchesBatchForm) {
  // Every 16th row through the scalar predict(): same wire, same bits.
  const AvailabilityPredictor reference;
  for (std::size_t i = 0; i < rows_.size(); i += 16) {
    const WireRequestItem item = wire_item(rows_[i]);
    const Prediction served = client_->predict(item);
    const Prediction expected =
        reference.predict(*by_id_.at(rows_[i].machine), item.request);
    EXPECT_TRUE(same_bits(served.temporal_reliability,
                          expected.temporal_reliability))
        << "row " << i;
  }
}

TEST_P(NetDifferentialTest, SharedServiceCacheServesSameBitsToWire) {
  // A second client sharing the server proves the memoized path (cache hits
  // populated by the first test's traffic pattern within this fixture) is
  // indistinguishable on the wire from the cold path.
  ClientConfig config;
  config.port = server_->port();
  PredictionClient second(config);
  const WireRequestItem item = wire_item(rows_.front());
  const Prediction first_answer = client_->predict(item);
  const Prediction second_answer = second.predict(item);
  EXPECT_TRUE(same_bits(first_answer.temporal_reliability,
                        second_answer.temporal_reliability));
}

TEST_P(NetDifferentialTest, UnknownMachineKeyFailsFastWithoutRetries) {
  // Trace loading is off by default, so an unknown key is a deterministic
  // rejection: the server answers retryable=0 and the client must surface
  // RemoteError from the single attempt instead of burning its retry budget.
  WireRequestItem item = wire_item(rows_.front());
  item.machine_key = "no-such-machine";
  EXPECT_THROW(client_->predict(item), RemoteError);
  EXPECT_EQ(client_->stats().attempts, 1u);
  EXPECT_EQ(client_->stats().retries, 0u);
  EXPECT_EQ(client_->stats().server_errors, 1u);
}

INSTANTIATE_TEST_SUITE_P(Reactors, NetDifferentialTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return std::to_string(info.param) + "reactor";
                         });

TEST(NetTraceLoading, RootSandboxedLoadsServeBitIdenticalAndStayBounded) {
  // A server with trace_root set loads path-named traces from under the
  // root only, serves them bit-identically to in-process prediction, and
  // LRU-evicts its store's loaded machines down to max_loaded_traces.
  namespace fs = std::filesystem;
  const fs::path root = fs::current_path() / "net-trace-root-test";
  fs::create_directories(root);
  WorkloadParams params;
  params.sampling_period = 60;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, /*seed=*/7171, /*count=*/2, /*days=*/10, "root");
  std::vector<std::string> names;
  for (const MachineTrace& trace : fleet) {
    names.push_back(trace.machine_id() + ".fgcs");
    trace.save_file((root / names.back()).string());
  }

  ServerConfig config;
  config.trace_root = root.string();
  config.max_loaded_traces = 1;  // force eviction on every alternation
  PredictionServer server(config, std::make_shared<PredictionService>());
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);

  const AvailabilityPredictor reference;
  const PredictionRequest request{
      .target_day = fleet.front().day_count(),
      .window = {.start_of_day = 9 * kSecondsPerHour,
                 .length = 2 * kSecondsPerHour}};
  for (int round = 0; round < 4; ++round) {
    const std::size_t which = static_cast<std::size_t>(round % 2);
    const Prediction served = client.predict(
        WireRequestItem{.machine_key = names[which], .request = request});
    const Prediction expected = reference.predict(fleet[which], request);
    EXPECT_TRUE(same_bits(served.temporal_reliability,
                          expected.temporal_reliability))
        << "round " << round;
  }

  // Escapes of the root — absolute paths outside it or ".." traversal —
  // are rejected as non-retryable errors, not served.
  for (const std::string& escape :
       {std::string("/etc/hostname"), std::string("../escape.fgcs")}) {
    EXPECT_THROW(client.predict(WireRequestItem{.machine_key = escape,
                                                .request = request}),
                 RemoteError)
        << escape;
  }

  server.stop();
  EXPECT_GE(server.store()->loads(), 4u);  // alternation reloaded traces
  EXPECT_LE(server.store()->machine_count(), 1u);  // bounded by the cap
}

}  // namespace
}  // namespace fgcs::net
