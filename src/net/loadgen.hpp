// Open-loop workload generation for the prediction wire protocol
// (docs/BENCHMARKS.md).
//
// YCSB-style: a *plan* is a seeded, fully deterministic request schedule —
// Poisson arrivals at a fixed offered rate, Zipf-skewed key popularity,
// per-op batch sizes, and (in churn-heavy mixes) connection teardown —
// built by build_plan() as a pure function of LoadgenConfig. The same seed
// therefore yields a byte-identical schedule (pinned by digest(), an
// FNV-1a fold over every op), no matter where or how often it is built.
//
// run_plan() then *executes* a plan against a live server, one thread per
// connection, and reports latency the coordinated-omission-safe way: every
// op has a scheduled send time on the open-loop arrival clock, and its
// latency is measured from that *scheduled* instant — not from the moment
// the connection got around to sending it. A sender that falls behind
// therefore charges its queueing delay to the ops it delayed, instead of
// silently omitting the coordination the way closed-loop "send, wait,
// measure, repeat" harnesses do. Offered vs. achieved throughput makes the
// same failure visible at the rate level.
//
// A non-positive offered_rate switches to saturation mode: no pacing, all
// ops scheduled immediately, latency measured from actual send (there is
// no arrival clock to be safe against) — `fgcs_loadgen --rate 0` uses it
// to find a server's throughput ceiling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace fgcs::net {

struct LoadgenConfig {
  std::uint64_t seed = 1;
  /// Ops per second across all connections (Poisson arrivals); <= 0 means
  /// saturate: no pacing, every connection sends back to back.
  double offered_rate = 200.0;
  /// Total predict_batch calls in the plan.
  std::size_t total_ops = 1000;
  /// Concurrent connections; ops are dealt round-robin so each connection
  /// executes an in-order slice of the global arrival sequence.
  unsigned connections = 8;
  /// Number of distinct machine keys the Zipf draw ranges over.
  std::size_t key_count = 4;
  /// Zipf(θ) skew for key popularity: rank-k key gets mass ∝ 1/k^θ.
  /// θ=0.99 is the YCSB default ("hot keys dominate"); 0 is uniform.
  double zipf_theta = 0.99;
  /// Requests per op, drawn uniformly in [batch_min, batch_max].
  std::size_t batch_min = 1;
  std::size_t batch_max = 4;
  /// Probability an op tears down and re-establishes its connection first
  /// (churn-heavy mixes stress accept/hand-off; 0 = persistent connections).
  double reconnect_prob = 0.0;
  /// Distinct (start, length) prediction windows the plan draws from. Few
  /// windows = read-mostly (the service memo-cache absorbs repeats); many =
  /// cache-miss-heavy (every op is new solver work).
  std::size_t distinct_windows = 4;
  /// target_day stamped on every request (callers set it to the served
  /// traces' day_count, i.e. "predict tomorrow").
  std::int64_t target_day = 10;
};

/// One predict_batch call in the schedule.
struct LoadgenOp {
  double scheduled = 0;          ///< seconds after run start (arrival clock)
  std::uint32_t connection = 0;  ///< executing connection index
  bool reconnect = false;        ///< tear down the connection first
  std::uint32_t window = 0;      ///< index into LoadgenPlan::windows
  std::vector<std::uint32_t> keys;  ///< key indices, one per batched request
};

struct LoadgenWindow {
  SimTime start_of_day = 0;
  SimTime length = 0;
};

struct LoadgenPlan {
  std::vector<LoadgenWindow> windows;
  std::vector<LoadgenOp> ops;
  /// Arrival time of the last op — the nominal run length at offered_rate.
  double horizon = 0;

  /// FNV-1a 64 fold over every schedule field (bit patterns for doubles):
  /// equal digests ⇔ byte-identical schedules. Pinned by the determinism
  /// tests and printed by fgcs_loadgen --plan-only.
  std::uint64_t digest() const;
};

/// Pure function of config: same config ⇒ identical plan (and digest).
LoadgenPlan build_plan(const LoadgenConfig& config);

struct LoadgenResult {
  std::size_t ops = 0;        ///< ops attempted
  std::size_t completed = 0;  ///< predict_batch calls that returned
  std::size_t failed = 0;     ///< calls that threw (counted, not retried)
  std::uint64_t predictions = 0;
  double wall_seconds = 0;    ///< first scheduled send to last completion
  double achieved_rate = 0;   ///< completed / wall_seconds
  // Latency quantiles in milliseconds, measured from the *scheduled* send
  // time (coordinated-omission-safe) when paced, from actual send when
  // saturating.
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
};

/// Executes `plan` against host:port with one PredictionClient per
/// connection. `keys` maps the plan's key indices to machine keys the
/// server can resolve; its size must equal config.key_count.
LoadgenResult run_plan(const LoadgenConfig& config, const LoadgenPlan& plan,
                       const std::string& host, std::uint16_t port,
                       const std::vector<std::string>& keys);

}  // namespace fgcs::net
