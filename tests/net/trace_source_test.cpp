// One trace source per server: every machine a PredictionServer serves —
// registered with add_trace, streamed in over kAppendSamples, or loaded from
// under trace_root — lives in the server's TraceStore under the key clients
// name it by. These regressions pin the three ways separate histories per
// name used to serve wrong answers, each compared bit for bit against the
// in-process AvailabilityPredictor on the history the server should hold:
//
//  (A) an append continuing an add_trace history must extend it, and reads
//      must see the extended history;
//  (B) an append to a file-backed key must continue the file's history, not
//      register an empty machine that shadows it;
//  (C) two files whose traces carry the same internal machine id must each
//      serve their own TR (the key, not the file's id, names the machine).
//
// Plus the load-once contract: N distinct path keys requested by eight
// concurrent connections load exactly N times, though their misses race on
// pool workers.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs::net {
namespace {

namespace fs = std::filesystem;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

MachineTrace lab_trace(std::uint64_t seed, int days) {
  WorkloadParams params;
  params.sampling_period = 60;
  return generate_fleet(params, seed, /*count=*/1, days, "lab").front();
}

PredictionRequest request_for(std::int64_t target_day) {
  return {.target_day = target_day,
          .window = {.start_of_day = 9 * kSecondsPerHour,
                     .length = 2 * kSecondsPerHour}};
}

/// Append frame for `trace`'s samples [first, first + count) under `key`.
WireAppendRequest append_of(const MachineTrace& trace, const std::string& key,
                            std::uint64_t first, std::uint64_t count) {
  WireAppendRequest request;
  request.machine_id = key;
  request.epoch_day_of_week =
      static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
  request.sampling_period = trace.sampling_period();
  request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
  request.first_sample_index = first;
  const std::size_t per_day = trace.samples_per_day();
  for (std::uint64_t i = first; i < first + count; ++i)
    request.samples.push_back(
        trace.at(static_cast<std::int64_t>(i / per_day), i % per_day));
  return request;
}

/// A fresh directory under the test's working directory.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_served_matches(PredictionClient& client, const std::string& key,
                           const MachineTrace& history,
                           const PredictionRequest& request) {
  const Prediction expected = AvailabilityPredictor().predict(history, request);
  const Prediction served =
      client.predict(WireRequestItem{.machine_key = key, .request = request});
  EXPECT_TRUE(same_bits(served.temporal_reliability,
                        expected.temporal_reliability))
      << key << ": served " << served.temporal_reliability << " != local "
      << expected.temporal_reliability;
  EXPECT_EQ(served.training_days_used, expected.training_days_used) << key;
  EXPECT_EQ(served.initial_state, expected.initial_state) << key;
}

// (A) add_trace + ingest.
TEST(NetTraceSource, AppendsExtendARegisteredTrace) {
  const MachineTrace trace = lab_trace(/*seed=*/2701, /*days=*/15);
  const MachineTrace registered = trace.slice(0, 14);
  const std::uint64_t per_day = trace.samples_per_day();
  // Day 14 must count for a day-15 request, or this test proves nothing.
  ASSERT_EQ(trace.day_type(14), trace.day_type(15));

  // Two ways to deliver day 14: continue at the registered frontier, or
  // replay the whole history from index 0 (the first 14 days dedup).
  for (const std::uint64_t first : {14 * per_day, std::uint64_t{0}}) {
    SCOPED_TRACE("append from index " + std::to_string(first));
    ServerConfig config;
    config.ingest = true;
    PredictionServer server(config, std::make_shared<PredictionService>());
    server.add_trace(registered);
    server.start();
    ClientConfig client_config;
    client_config.port = server.port();
    PredictionClient client(client_config);

    expect_served_matches(client, trace.machine_id(), registered,
                          request_for(14));
    const WireAppendAck ack = client.append_samples(
        append_of(trace, trace.machine_id(), first, 15 * per_day - first));
    EXPECT_EQ(ack.accepted, per_day);
    EXPECT_EQ(ack.duplicates, 14 * per_day - first);
    EXPECT_EQ(ack.days_closed, 1u);
    EXPECT_EQ(ack.next_index, 15 * per_day);
    expect_served_matches(client, trace.machine_id(), trace, request_for(15));
    server.stop();
  }
}

// (B) trace_root + ingest.
TEST(NetTraceSource, AppendsToAFileBackedKeyContinueTheFile) {
  const MachineTrace trace = lab_trace(/*seed=*/2702, /*days=*/15);
  const MachineTrace on_disk = trace.slice(0, 14);
  const std::uint64_t per_day = trace.samples_per_day();
  ASSERT_EQ(trace.day_type(14), trace.day_type(15));
  const fs::path root = scratch_dir("net-trace-source-file-append");
  on_disk.save_file((root / "host.fgcs").string());
  const std::string key = "host.fgcs";

  ServerConfig config;
  config.trace_root = root.string();
  config.ingest = true;
  PredictionServer server(config, std::make_shared<PredictionService>());
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);

  expect_served_matches(client, key, on_disk, request_for(14));
  // Ten samples continuing the file: buffered, so reads are unchanged.
  WireAppendAck ack =
      client.append_samples(append_of(trace, key, 14 * per_day, 10));
  EXPECT_EQ(ack.accepted, 10u);
  EXPECT_EQ(ack.duplicates, 0u);
  EXPECT_EQ(ack.next_index, 14 * per_day + 10);
  expect_served_matches(client, key, on_disk, request_for(14));
  // A retransmission of the file's first ten samples is all duplicates.
  ack = client.append_samples(append_of(trace, key, 0, 10));
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.duplicates, 10u);
  // The rest of day 14 closes it onto the file's 14 days.
  ack = client.append_samples(
      append_of(trace, key, 14 * per_day + 10, per_day - 10));
  EXPECT_EQ(ack.days_closed, 1u);
  EXPECT_EQ(ack.next_index, 15 * per_day);
  expect_served_matches(client, key, trace, request_for(15));
  server.stop();
}

// (C) trace_root alone: one internal id under two paths.
TEST(NetTraceSource, TwoFilesWithOneInternalIdServeTheirOwnTraces) {
  const MachineTrace first = lab_trace(/*seed=*/2703, /*days=*/14);
  const MachineTrace second = lab_trace(/*seed=*/2704, /*days=*/14);
  ASSERT_EQ(first.machine_id(), second.machine_id());
  const PredictionRequest request = request_for(14);
  ASSERT_FALSE(same_bits(
      AvailabilityPredictor().predict(first, request).temporal_reliability,
      AvailabilityPredictor().predict(second, request).temporal_reliability))
      << "pick seeds whose traces predict differently";
  const fs::path root = scratch_dir("net-trace-source-shared-id");
  fs::create_directories(root / "a");
  fs::create_directories(root / "b");
  first.save_file((root / "a" / "host.fgcs").string());
  second.save_file((root / "b" / "host.fgcs").string());

  ServerConfig config;
  config.trace_root = root.string();
  PredictionServer server(config, std::make_shared<PredictionService>());
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);
  for (int round = 0; round < 2; ++round) {
    expect_served_matches(client, "a/host.fgcs", first, request);
    expect_served_matches(client, "b/host.fgcs", second, request);
  }
  server.stop();
  ASSERT_NE(server.store(), nullptr);
  const std::shared_ptr<const MachineTrace> loaded =
      server.store()->snapshot("b/host.fgcs");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->machine_id(), "b/host.fgcs");
}

TEST(NetTraceSource, FourReactorsLoadEachDistinctKeyOnce) {
  WorkloadParams params;
  params.sampling_period = 60;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, /*seed=*/2705, /*count=*/3, /*days=*/10, "once");
  const fs::path root = scratch_dir("net-trace-source-load-once");
  std::vector<std::string> keys;
  for (const MachineTrace& trace : fleet) {
    keys.push_back(trace.machine_id() + ".fgcs");
    trace.save_file((root / keys.back()).string());
  }

  ServerConfig config;
  config.trace_root = root.string();
  PredictionServer server(config, std::make_shared<PredictionService>());
  server.start();

  // Every connection names every key, from its own thread, so pool workers
  // miss the same keys together.
  const PredictionRequest request = request_for(fleet.front().day_count());
  std::vector<Prediction> expected;
  for (const MachineTrace& trace : fleet)
    expected.push_back(AvailabilityPredictor().predict(trace, request));
  std::vector<WireRequestItem> items;
  for (const std::string& key : keys)
    items.push_back({.machine_key = key, .request = request});
  constexpr int kConnections = 8;
  std::vector<std::vector<Prediction>> served(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c)
    clients.emplace_back([&, c] {
      ClientConfig client_config;
      client_config.port = server.port();
      PredictionClient client(client_config);
      served[c] = client.predict_batch(items);
    });
  for (std::thread& client : clients) client.join();
  server.stop();

  for (int c = 0; c < kConnections; ++c) {
    ASSERT_EQ(served[c].size(), fleet.size()) << "connection " << c;
    for (std::size_t i = 0; i < fleet.size(); ++i)
      EXPECT_TRUE(same_bits(served[c][i].temporal_reliability,
                            expected[i].temporal_reliability))
          << "connection " << c << " key " << keys[i];
  }
  EXPECT_EQ(server.store()->loads(), keys.size());
  EXPECT_EQ(server.store()->machine_count(), keys.size());
}

}  // namespace
}  // namespace fgcs::net
