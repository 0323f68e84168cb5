// fgcs_loadgen — seeded open-loop load generator for the prediction wire
// protocol (methodology in docs/BENCHMARKS.md, schedule semantics in
// src/net/loadgen.hpp).
//
//   fgcs_loadgen --selfserve [--machines M] [--days D] ...
//   fgcs_loadgen --host H --port P --keys id1,id2,... --target-day N ...
//
// Common knobs:
//   --seed S            schedule seed (default 1); same seed ⇒ byte-identical
//                       plan (and --plan-only output)
//   --rate R            offered ops/sec, Poisson arrivals (default 200);
//                       0 = saturate (no pacing)
//   --ops N             total predict_batch calls (default 1000)
//   --connections N     concurrent connections (default 8)
//   --mix read|churn    read  = persistent connections, hot windows
//                       churn = 30% reconnects, many distinct windows
//   --theta T           Zipf key-popularity skew (default 0.99)
//   --plan-only         print the deterministic plan summary + digest and
//                       exit without touching the network
//   --assert-achieved P exit 1 unless achieved ≥ P% of offered (CI smoke)
//
// --selfserve spins an in-process PredictionServer over a
// synthetic fleet on an ephemeral loopback port and drives that, so a CI
// smoke needs no orchestration. Latency is reported coordinated-omission-
// safe: measured from each op's *scheduled* arrival, not its actual send.
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fgcs.hpp"
#include "net/loadgen.hpp"
#include "util/cli.hpp"

namespace {

using namespace fgcs;

std::vector<std::string> split_keys(const std::string& csv) {
  std::vector<std::string> keys;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::string key = csv.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!key.empty()) keys.push_back(key);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return keys;
}

int main_checked(int argc, char** argv) {
  const ArgParser args(argc, argv, {"selfserve", "plan-only"});

  net::LoadgenConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  config.offered_rate = args.get_double_or("rate", 200.0);
  config.total_ops = static_cast<std::size_t>(args.get_int_or("ops", 1000, 0));
  config.connections = static_cast<unsigned>(args.get_int_or(
      "connections", 8, 0, std::numeric_limits<unsigned>::max()));
  config.zipf_theta = args.get_double_or("theta", 0.99);

  const std::string mix = args.get_or("mix", "read");
  if (mix == "read") {
    config.reconnect_prob = 0.0;
    config.distinct_windows = 4;
    config.batch_min = 1;
    config.batch_max = 4;
  } else if (mix == "churn") {
    config.reconnect_prob = 0.30;
    config.distinct_windows = 64;
    config.batch_min = 1;
    config.batch_max = 8;
  } else {
    std::fprintf(stderr, "fgcs_loadgen: unknown --mix '%s' (read|churn)\n",
                 mix.c_str());
    return 1;
  }

  const bool selfserve = args.has("selfserve");
  const bool plan_only = args.has("plan-only");
  const double assert_achieved = args.get_double_or("assert-achieved", 0.0);

  // Target resolution — either an in-process server over a synthetic
  // fleet, or an external host/port plus explicit keys.
  const std::size_t machines =
      static_cast<std::size_t>(args.get_int_or("machines", 4, 0));
  const std::size_t days =
      static_cast<std::size_t>(args.get_int_or("days", 8, 0));
  const std::string host = args.get_or("host", "127.0.0.1");
  const auto port =
      static_cast<std::uint16_t>(args.get_int_or("port", 0, 0, 65535));
  std::vector<std::string> keys = split_keys(args.get_or("keys", ""));
  config.target_day = args.get_int_or("target-day", 10);
  args.check_all_consumed();

  std::vector<MachineTrace> fleet;
  if (selfserve) {
    WorkloadParams params;
    params.sampling_period = 60;
    fleet = generate_fleet(params, /*seed=*/20060619, machines, days,
                           "loadgen");
    keys.clear();
    for (const MachineTrace& trace : fleet) keys.push_back(trace.machine_id());
    config.target_day = static_cast<std::int64_t>(days);
  } else if (keys.empty() && !plan_only) {
    std::fprintf(stderr,
                 "fgcs_loadgen: need --keys (or --selfserve) to know what "
                 "to request\n");
    return 1;
  }
  if (!keys.empty()) config.key_count = keys.size();

  const net::LoadgenPlan plan = net::build_plan(config);
  std::printf(
      "fgcs_loadgen: plan seed=%" PRIu64
      " mix=%s ops=%zu connections=%u keys=%zu theta=%.2f batch=[%zu,%zu] "
      "reconnect=%.2f windows=%zu rate=%.1f\n",
      config.seed, mix.c_str(), plan.ops.size(), config.connections,
      config.key_count, config.zipf_theta, config.batch_min, config.batch_max,
      config.reconnect_prob, config.distinct_windows, config.offered_rate);
  std::printf("fgcs_loadgen: plan horizon=%.6fs digest=%016" PRIx64 "\n",
              plan.horizon, plan.digest());
  if (plan_only) return 0;

  std::unique_ptr<net::PredictionServer> server;
  std::uint16_t target_port = port;
  if (selfserve) {
    net::ServerConfig server_config;
    server_config.port = port;
    server_config.max_connections = config.connections + 16;
    server = std::make_unique<net::PredictionServer>(
        server_config, std::make_shared<PredictionService>());
    for (const MachineTrace& trace : fleet) server->add_trace(trace);
    server->start();
    target_port = server->port();
    std::printf("fgcs_loadgen: selfserve on %s:%u\n", server->host().c_str(),
                target_port);
  }

  const net::LoadgenResult result =
      net::run_plan(config, plan, host, target_port, keys);

  std::printf("fgcs_loadgen: run completed=%zu/%zu failed=%zu "
              "predictions=%" PRIu64 " wall=%.3fs offered=%.1f/s "
              "achieved=%.1f/s\n",
              result.completed, result.ops, result.failed, result.predictions,
              result.wall_seconds, config.offered_rate, result.achieved_rate);
  std::printf("fgcs_loadgen: latency p50=%.3fms p99=%.3fms p999=%.3fms "
              "max=%.3fms (%s)\n",
              result.p50_ms, result.p99_ms, result.p999_ms, result.max_ms,
              config.offered_rate > 0 ? "coordinated-omission-safe"
                                      : "saturation mode, from send");

  if (server) {
    server->stop();
    const net::ServerStats stats = server->stats();
    std::printf("fgcs_loadgen: server frames=%" PRIu64 " responses=%" PRIu64
                " errors=%" PRIu64 "\n",
                stats.frames, stats.responses, stats.errors);
  }

  if (assert_achieved > 0) {
    const double floor = config.offered_rate * assert_achieved / 100.0;
    if (config.offered_rate <= 0) {
      std::fprintf(stderr,
                   "fgcs_loadgen: --assert-achieved needs a positive "
                   "--rate\n");
      return 1;
    }
    if (result.achieved_rate < floor || result.failed > 0) {
      std::fprintf(stderr,
                   "fgcs_loadgen: FAILED achieved %.1f/s < %.1f%% of offered "
                   "%.1f/s (or failures: %zu)\n",
                   result.achieved_rate, assert_achieved, config.offered_rate,
                   result.failed);
      return 1;
    }
    std::printf("fgcs_loadgen: OK achieved ≥ %.0f%% of offered\n",
                assert_achieved);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_checked(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_loadgen: %s\n", error.what());
    return 1;
  }
}
