// Sharded-routing differential gate (DESIGN.md §11): every committed golden
// row — the 128-row lab grid AND the 64-row transient-VM preemption grid —
// served through a 3-shard consistent-hash ring must be *bit-identical*
// (exact double equality, no tolerance) to the single-registry baseline the
// golden suite pins. And not on the happy path only: each row is first
// requested through a deliberately stale ring that excludes the true owner,
// so every row takes exactly one kWrongShard forwarding hop — proving the
// refuse-refetch-retry cycle cannot perturb a single bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/error.hpp"
#include "workload/preemption.hpp"
#include "workload/trace_generator.hpp"

#ifndef FGCS_GOLDEN_CSV
#error "build must define FGCS_GOLDEN_CSV (path to tests/golden/golden_tr.csv)"
#endif
#ifndef FGCS_GOLDEN_PREEMPTION_CSV
#error "build must define FGCS_GOLDEN_PREEMPTION_CSV"
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

std::vector<GoldenRow> load_fixture(const char* path) {
  std::ifstream in(path);
  if (!in) throw DataError(std::string("cannot open fixture ") + path);
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Both pinned fleets (fgcs_golden's exact parameters): the 4×30-day lab
/// fleet and the 4×30-day transient-VM preemption fleet.
std::vector<MachineTrace> differential_fleet() {
  WorkloadParams params;
  params.sampling_period = 60;
  std::vector<MachineTrace> fleet =
      generate_fleet(params, /*seed=*/20060619, /*count=*/4, /*days=*/30,
                     "golden");
  std::vector<MachineTrace> preempt = generate_preemption_fleet(
      PreemptionParams{}, /*seed=*/20060619, /*count=*/4, /*days=*/30,
      "preempt");
  for (MachineTrace& trace : preempt) fleet.push_back(std::move(trace));
  return fleet;
}

class RoutingDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 3;

  void SetUp() override {
    fleet_ = differential_fleet();
    for (const MachineTrace& trace : fleet_)
      by_id_.emplace(trace.machine_id(), &trace);

    // Every shard holds every trace: ownership decides who *answers*, so a
    // wrong ring surfaces as a kWrongShard refusal, never as a missing
    // machine — exactly the decentralized-registry serving contract.
    std::vector<RingMember> members;
    for (int s = 0; s < kShards; ++s) {
      ServerConfig config;
      config.node_id = "shard" + std::to_string(s);
      servers_.push_back(std::make_unique<PredictionServer>(
          config, std::make_shared<PredictionService>()));
      for (const MachineTrace& trace : fleet_)
        servers_.back()->add_trace(trace);
      servers_.back()->start();
      members.push_back(RingMember{config.node_id, "127.0.0.1",
                                   servers_.back()->port()});
    }
    ring_ = HashRing(members, /*vnodes=*/128, /*version=*/1);
    for (const auto& server : servers_) server->set_ring(ring_);
  }

  void TearDown() override {
    client_.reset();
    for (const auto& server : servers_) server->stop();
  }

  ShardedPredictionClient& client() {
    if (!client_)
      client_ = std::make_unique<ShardedPredictionClient>(ring_);
    return *client_;
  }

  static WireRequestItem wire_item(const GoldenRow& row) {
    return WireRequestItem{
        .machine_key = row.machine,
        .request = {.target_day = row.target_day,
                    .window = {.start_of_day = row.window_start,
                               .length = row.window_length},
                    .initial_state = std::nullopt}};
  }

  /// The true ring minus the row's owner: routing through it is guaranteed
  /// to hit a non-owner, whose kWrongShard answer must heal the view.
  HashRing stale_ring_excluding_owner_of(const std::string& key) const {
    const RingMember* owner = ring_.owner(key);
    std::vector<RingMember> members;
    for (const RingMember& member : ring_.members())
      if (member.node_id != owner->node_id) members.push_back(member);
    return HashRing(members, /*vnodes=*/128, /*version=*/0);
  }

  /// Serves every row and checks exact bits against the in-process
  /// single-registry baseline. With `force_stale_hop`, each row is routed
  /// through a stale owner-less ring first — exactly one hop per row.
  void expect_rows_bit_identical(const std::vector<GoldenRow>& rows,
                                 bool force_stale_hop) {
    PredictionService baseline;
    const std::uint64_t hops_before = client().stats().wrong_shard_hops;
    for (const GoldenRow& row : rows) {
      if (force_stale_hop)
        client().adopt_ring(stale_ring_excluding_owner_of(row.machine));
      const WireRequestItem item = wire_item(row);
      const Prediction served = client().predict(item);
      const Prediction expected =
          baseline.predict(*by_id_.at(row.machine), item.request);
      EXPECT_TRUE(same_bits(served.temporal_reliability,
                            expected.temporal_reliability))
          << row.machine << " day " << row.target_day << " start "
          << row.window_start << ": served " << served.temporal_reliability
          << " baseline " << expected.temporal_reliability;
      for (std::size_t s = 0; s < served.p_absorb.size(); ++s)
        EXPECT_TRUE(same_bits(served.p_absorb[s], expected.p_absorb[s]));
      // The fixture itself is cross-checked at its committed tolerance.
      EXPECT_NEAR(served.temporal_reliability, row.tr, 1e-12);
    }
    const std::uint64_t hops = client().stats().wrong_shard_hops - hops_before;
    if (force_stale_hop)
      EXPECT_EQ(hops, rows.size()) << "expected exactly one hop per row";
    else
      EXPECT_EQ(hops, 0u) << "fresh-ring serving must never hop";
  }

  std::vector<MachineTrace> fleet_;
  std::map<std::string, const MachineTrace*> by_id_;
  std::vector<std::unique_ptr<PredictionServer>> servers_;
  HashRing ring_;
  std::unique_ptr<ShardedPredictionClient> client_;
};

TEST_F(RoutingDifferentialTest, GoldenRowsBitIdenticalThroughFreshRing) {
  const std::vector<GoldenRow> rows = load_fixture(FGCS_GOLDEN_CSV);
  ASSERT_EQ(rows.size(), 128u) << "golden grid changed; update this test";
  expect_rows_bit_identical(rows, /*force_stale_hop=*/false);
  // The batch actually spread across shards (vacuous otherwise).
  std::uint64_t answering = 0;
  for (const auto& server : servers_)
    answering += server->stats().responses > 0;
  EXPECT_GE(answering, 2u) << "all keys landed on one shard";
}

TEST_F(RoutingDifferentialTest, GoldenRowsBitIdenticalThroughStaleRing) {
  const std::vector<GoldenRow> rows = load_fixture(FGCS_GOLDEN_CSV);
  ASSERT_EQ(rows.size(), 128u);
  expect_rows_bit_identical(rows, /*force_stale_hop=*/true);
  // Every hop was answered with the servers' (versioned) ring and adopted.
  EXPECT_EQ(client().ring().version(), ring_.version());
  std::uint64_t refusals = 0;
  for (const auto& server : servers_)
    refusals += server->stats().wrong_shard;
  EXPECT_EQ(refusals, rows.size());
}

TEST_F(RoutingDifferentialTest, PreemptionRowsBitIdenticalThroughFreshRing) {
  const std::vector<GoldenRow> rows =
      load_fixture(FGCS_GOLDEN_PREEMPTION_CSV);
  ASSERT_EQ(rows.size(), 64u) << "preemption grid changed; update this test";
  expect_rows_bit_identical(rows, /*force_stale_hop=*/false);
}

TEST_F(RoutingDifferentialTest, PreemptionRowsBitIdenticalThroughStaleRing) {
  const std::vector<GoldenRow> rows =
      load_fixture(FGCS_GOLDEN_PREEMPTION_CSV);
  ASSERT_EQ(rows.size(), 64u);
  expect_rows_bit_identical(rows, /*force_stale_hop=*/true);
}

TEST_F(RoutingDifferentialTest, WholeGridAsOneBatchMatchesBaseline) {
  // The batched path exercises the multi-shard partition/stitch logic: one
  // predict_batch spanning all 192 rows, answers re-aligned to request
  // order, bit-identical throughout.
  std::vector<GoldenRow> rows = load_fixture(FGCS_GOLDEN_CSV);
  for (GoldenRow& row : load_fixture(FGCS_GOLDEN_PREEMPTION_CSV))
    rows.push_back(std::move(row));
  ASSERT_EQ(rows.size(), 192u);
  std::vector<WireRequestItem> items;
  items.reserve(rows.size());
  for (const GoldenRow& row : rows) items.push_back(wire_item(row));

  const std::vector<Prediction> served = client().predict_batch(items);
  ASSERT_EQ(served.size(), rows.size());
  PredictionService baseline;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Prediction expected = baseline.predict(
        *by_id_.at(rows[i].machine), items[i].request);
    EXPECT_TRUE(same_bits(served[i].temporal_reliability,
                          expected.temporal_reliability))
        << "row " << i << " (" << rows[i].machine << ")";
  }
  std::set<std::string> owning;
  for (const WireRequestItem& item : items)
    owning.insert(ring_.owner(item.machine_key)->node_id);
  EXPECT_EQ(client().stats().sub_batches, owning.size())
      << "one wire batch per owning shard";
}

TEST(RoutingHopBound, ServersThatPointAtEachOtherEndTheCallAfterThreeHops) {
  // Each server's ring names only the other node, so each refuses every key
  // with a ring that sends the client back: the forwarding never settles.
  PredictionServer a(ServerConfig{.node_id = "a"},
                     std::make_shared<PredictionService>());
  PredictionServer b(ServerConfig{.node_id = "b"},
                     std::make_shared<PredictionService>());
  a.start();
  b.start();
  const RingMember member_a{"a", "127.0.0.1", a.port()};
  const RingMember member_b{"b", "127.0.0.1", b.port()};
  a.set_ring(HashRing({member_b}));
  b.set_ring(HashRing({member_a}));

  ShardedPredictionClient client(HashRing({member_a}));
  const WireRequestItem item{
      .machine_key = "m0",
      .request = {.target_day = 5,
                  .window = {.start_of_day = 9 * kSecondsPerHour,
                             .length = 2 * kSecondsPerHour}}};
  try {
    (void)client.predict(item);
    FAIL() << "expected the hop bound to end the call";
  } catch (const DataError& error) {
    EXPECT_NE(std::string(error.what()).find("exceeded 3 hops"),
              std::string::npos)
        << error.what();
  }
  // Refusals 1-3 each adopt the carried ring; refusal 4 exceeds the bound.
  EXPECT_EQ(client.stats().wrong_shard_hops, 4u);
  EXPECT_EQ(client.stats().ring_refreshes, 3u);
  a.stop();
  b.stop();
  EXPECT_EQ(a.stats().wrong_shard, 2u);
  EXPECT_EQ(b.stats().wrong_shard, 2u);
}

}  // namespace
}  // namespace fgcs::net
