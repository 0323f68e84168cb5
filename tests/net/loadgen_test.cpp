// Loadgen invariants (src/net/loadgen.{hpp,cpp}, docs/BENCHMARKS.md):
// the plan is a pure function of the config (same seed ⇒ byte-identical
// schedule, pinned through digest() and through the fgcs_loadgen
// --plan-only subprocess output), the Zipf draw actually skews toward hot
// keys, mixes shape the schedule as documented, and a small end-to-end run
// against an in-process server completes every op.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "workload/trace_generator.hpp"

#ifndef FGCS_LOADGEN_BIN
#error "build must define FGCS_LOADGEN_BIN (path to the fgcs_loadgen tool)"
#endif

namespace fgcs::net {
namespace {

LoadgenConfig base_config() {
  LoadgenConfig config;
  config.seed = 99;
  config.offered_rate = 500;
  config.total_ops = 400;
  config.connections = 4;
  config.key_count = 8;
  return config;
}

TEST(Loadgen, SameSeedBuildsByteIdenticalPlans) {
  const LoadgenConfig config = base_config();
  const LoadgenPlan a = build_plan(config);
  const LoadgenPlan b = build_plan(config);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.digest(), b.digest());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].scheduled, b.ops[i].scheduled);
    EXPECT_EQ(a.ops[i].connection, b.ops[i].connection);
    EXPECT_EQ(a.ops[i].reconnect, b.ops[i].reconnect);
    EXPECT_EQ(a.ops[i].window, b.ops[i].window);
    EXPECT_EQ(a.ops[i].keys, b.ops[i].keys);
  }

  LoadgenConfig other = config;
  other.seed = 100;
  EXPECT_NE(build_plan(other).digest(), a.digest());
}

TEST(Loadgen, ScheduleIsOpenLoopPoissonAtTheOfferedRate) {
  const LoadgenConfig config = base_config();
  const LoadgenPlan plan = build_plan(config);
  ASSERT_EQ(plan.ops.size(), config.total_ops);
  double previous = 0;
  for (const LoadgenOp& op : plan.ops) {
    EXPECT_GE(op.scheduled, previous);  // arrivals are a monotone clock
    previous = op.scheduled;
    EXPECT_LT(op.connection, config.connections);
    EXPECT_GE(op.keys.size(), config.batch_min);
    EXPECT_LE(op.keys.size(), config.batch_max);
    for (const std::uint32_t key : op.keys) EXPECT_LT(key, config.key_count);
  }
  // 400 exponential gaps at 500/s: the horizon concentrates near 0.8s.
  const double expected = static_cast<double>(config.total_ops) /
                          config.offered_rate;
  EXPECT_GT(plan.horizon, expected * 0.5);
  EXPECT_LT(plan.horizon, expected * 2.0);
}

TEST(Loadgen, ZipfSkewsDrawsTowardHotKeys) {
  LoadgenConfig config = base_config();
  config.total_ops = 2000;
  config.zipf_theta = 0.99;
  config.key_count = 16;
  const LoadgenPlan plan = build_plan(config);
  std::vector<std::size_t> counts(config.key_count, 0);
  for (const LoadgenOp& op : plan.ops)
    for (const std::uint32_t key : op.keys) ++counts[key];
  // Rank 1 beats rank 16 by far under θ≈1 (expected ratio ~16×; require 4×
  // to stay robust to seed luck).
  EXPECT_GE(counts.front(), 4 * std::max<std::size_t>(counts.back(), 1));

  // θ=0 is uniform: the hottest key holds no outsized share.
  config.zipf_theta = 0;
  const LoadgenPlan uniform = build_plan(config);
  std::vector<std::size_t> flat(config.key_count, 0);
  std::size_t total = 0;
  for (const LoadgenOp& op : uniform.ops)
    for (const std::uint32_t key : op.keys) ++flat[key], ++total;
  for (const std::size_t count : flat)
    EXPECT_LT(count, total / 4);  // 16 keys: uniform share is ~6%
}

TEST(Loadgen, MixKnobsShapeReconnectsAndWindows) {
  LoadgenConfig read = base_config();
  read.reconnect_prob = 0;
  const LoadgenPlan read_plan = build_plan(read);
  for (const LoadgenOp& op : read_plan.ops) EXPECT_FALSE(op.reconnect);

  LoadgenConfig churn = base_config();
  churn.reconnect_prob = 0.3;
  churn.distinct_windows = 32;
  const LoadgenPlan churn_plan = build_plan(churn);
  EXPECT_EQ(churn_plan.windows.size(), 32u);
  std::size_t reconnects = 0;
  for (const LoadgenOp& op : churn_plan.ops) reconnects += op.reconnect;
  // 400 ops at p=0.3: far from both 0 and 400.
  EXPECT_GT(reconnects, 400 * 0.15);
  EXPECT_LT(reconnects, 400 * 0.45);
}

TEST(Loadgen, RunAgainstTwoReactorServerCompletesEveryOp) {
  WorkloadParams params;
  params.sampling_period = 60;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, /*seed=*/555, /*count=*/2, /*days=*/8, "lg");
  std::vector<std::string> keys;
  for (const MachineTrace& trace : fleet) keys.push_back(trace.machine_id());

  PredictionServer server(ServerConfig{},
                          std::make_shared<PredictionService>());
  for (const MachineTrace& trace : fleet) server.add_trace(trace);
  server.start();

  LoadgenConfig config = base_config();
  config.total_ops = 120;
  config.offered_rate = 300;
  config.key_count = keys.size();
  config.reconnect_prob = 0.2;  // exercise the churn path end to end
  config.target_day = static_cast<std::int64_t>(fleet.front().day_count());
  const LoadgenPlan plan = build_plan(config);
  const LoadgenResult result =
      run_plan(config, plan, server.host(), server.port(), keys);
  server.stop();

  EXPECT_EQ(result.ops, config.total_ops);
  EXPECT_EQ(result.completed, config.total_ops);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GE(result.predictions, config.total_ops * config.batch_min);
  EXPECT_GT(result.wall_seconds, 0);
  EXPECT_GT(result.achieved_rate, 0);
  // Quantiles must be coherent: nonnegative and monotone.
  EXPECT_GE(result.p50_ms, 0);
  EXPECT_LE(result.p50_ms, result.p99_ms);
  EXPECT_LE(result.p99_ms, result.p999_ms);
  EXPECT_LE(result.p999_ms, result.max_ms);
  // The server saw exactly the plan's ops (reconnects change accepts, not
  // request counts).
  EXPECT_EQ(server.stats().requests, config.total_ops);
  EXPECT_EQ(server.stats().responses, config.total_ops);
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST(Loadgen, PlanOnlySubprocessOutputIsByteIdentical) {
  const std::string command = std::string(FGCS_LOADGEN_BIN) +
                              " --plan-only --seed 31 --ops 200 --mix churn "
                              "2>&1";
  const auto capture = [&command]() {
    FILE* pipe = ::popen(("timeout 120 " + command).c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
      output += buffer.data();
    EXPECT_EQ(::pclose(pipe), 0);
    return output;
  };
  const std::string first = capture();
  const std::string second = capture();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("digest="), std::string::npos);
}

}  // namespace
}  // namespace fgcs::net
