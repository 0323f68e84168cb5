// PredictionClient — the remote counterpart of PredictionService
// (DESIGN.md §9).
//
// predict_batch() ships a request frame to a PredictionServer and returns
// the decoded Predictions, bit-identical to calling the service in-process
// (the wire carries IEEE-754 bit patterns, net/wire.hpp). The call is
// synchronous and *self-healing*: any transport failure of an attempt —
// connect or request timeout, connection reset, a retryable error frame, a
// corrupt or desynced stream — closes the socket and retries the whole
// (idempotent) batch, pacing attempts with the scheduler's jittered
// capped-exponential-backoff helper (retry_backoff_delay, with
// SchedulerConfig delay fields interpreted in milliseconds). Only after
// max_attempts consecutive failures does the client throw DataError,
// carrying the last attempt's failure. A *non-retryable* error frame —
// the server rejected the request itself (unknown machine key, undecodable
// payload), so every retry would fail identically — fails fast instead,
// throwing RemoteError from the first attempt with no backoff burned.
//
// The retry/backoff stream is seeded (backoff.backoff_seed), so a chaos run
// with pinned failpoints replays its exact retry schedule.
//
// Thread-safety: a client is a single connection and is NOT thread-safe;
// use one client per thread (the server multiplexes them).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ishare/scheduler.hpp"
#include "net/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fgcs::net {

/// The server rejected the request itself (error frame with retryable=0):
/// identical bytes would be rejected identically, so predict_batch throws
/// this immediately instead of burning max_attempts round-trips + backoff.
/// Derives from DataError, so callers that only care about "the call
/// failed" keep working unchanged.
class RemoteError : public DataError {
 public:
  using DataError::DataError;
};

/// The server refused the batch because its ring assigns at least one key
/// to another node (kWrongShard frame, DESIGN.md §11). Carries the server's
/// current ring — the refusal IS the refetch: adopt the ring, re-partition,
/// retry. PredictionClient rethrows this without closing the socket (the
/// stream is still in sync) or burning retry attempts; ShardedPredictionClient
/// handles it transparently.
class WrongShardError : public DataError {
 public:
  explicit WrongShardError(HashRing ring)
      : DataError("net client: server answered wrong-shard (ring version " +
                  std::to_string(ring.version()) + ")"),
        ring_(std::move(ring)) {}

  const HashRing& ring() const { return ring_; }

 private:
  HashRing ring_;
};

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// TCP connect deadline per attempt, seconds.
  double connect_timeout = 5.0;
  /// Send-request-to-full-response deadline per attempt, seconds.
  double request_timeout = 30.0;
  /// Total attempts per predict_batch call (first try included).
  int max_attempts = 5;
  /// Pause between attempts, computed by retry_backoff_delay with these
  /// fields read in MILLISECONDS (the scheduler uses simulated seconds; a
  /// network client backs off on a thousandfold finer clock).
  SchedulerConfig backoff{.retry_delay = 10,
                          .backoff_factor = 2.0,
                          .max_retry_delay = 2000,
                          .backoff_jitter = 0.1,
                          .backoff_seed = 0x5eedc11e};
};

/// Monotonic per-client counters (single-threaded, like the client itself).
struct ClientStats {
  std::uint64_t batches = 0;      ///< predict_batch calls
  std::uint64_t appends = 0;      ///< append_samples calls
  std::uint64_t gossips = 0;      ///< gossip_sync calls
  std::uint64_t attempts = 0;     ///< wire attempts (≥ batches + appends)
  std::uint64_t retries = 0;      ///< attempts after the first of a call
  std::uint64_t reconnects = 0;   ///< sockets opened
  std::uint64_t server_errors = 0;///< error frames received
  std::uint64_t wrong_shards = 0; ///< kWrongShard frames received
};

class PredictionClient {
 public:
  explicit PredictionClient(ClientConfig config);
  ~PredictionClient();

  PredictionClient(const PredictionClient&) = delete;
  PredictionClient& operator=(const PredictionClient&) = delete;

  /// Round-trips one batch. Returns results aligned with `items`. Throws
  /// DataError after max_attempts failed transport attempts, RemoteError
  /// immediately on a non-retryable server rejection (or PreconditionError
  /// on an unencodable request).
  std::vector<Prediction> predict_batch(
      std::span<const WireRequestItem> items);

  /// Convenience single-request form.
  Prediction predict(const WireRequestItem& item);

  /// Streams one batch of monitor samples to the server's ingest store and
  /// returns its ack. Same self-healing contract as predict_batch — appends
  /// are idempotent (the store skips already-covered indices as duplicates),
  /// so every transport failure *and* every retryable server rejection
  /// (injected drops, rollup failpoints) retries the identical bytes;
  /// non-retryable rejections (ingest disabled, spec mismatch, index gap)
  /// throw RemoteError immediately.
  WireAppendAck append_samples(const WireAppendRequest& request);

  /// Pushes one gossip sync (this node's member table) and returns the
  /// peer's ack table. Same self-healing contract as predict_batch —
  /// full-state syncs are idempotent, so transport failures retry; a peer
  /// without gossip enabled throws RemoteError immediately.
  GossipMessage gossip_sync(const GossipMessage& sync);

  bool connected() const { return fd_ >= 0; }
  void close();

  const ClientStats& stats() const { return stats_; }
  const ClientConfig& config() const { return config_; }

 private:
  /// One attempt: connect if needed, send `encode()` as a `type` frame and
  /// read the answer. Returns it when it is an `expected` frame; a kError
  /// answer throws RemoteError (non-retryable) or DataError, and a
  /// kWrongShard answer throws WrongShardError.
  template <typename Encode>
  Frame round_trip(FrameType type, Encode&& encode, FrameType expected,
                   const char* what);
  /// Shared retry/backoff loop behind every round trip.
  template <typename Result, typename Attempt>
  Result with_retries(const char* what, Attempt&& attempt);
  void ensure_connected();
  void send_all(std::span<const std::uint8_t> bytes,
                std::chrono::steady_clock::time_point deadline);
  Frame read_frame(std::chrono::steady_clock::time_point deadline);
  void wait_io(bool for_write,
               std::chrono::steady_clock::time_point deadline,
               const char* what);

  ClientConfig config_;
  Rng backoff_rng_;
  int fd_ = -1;
  ClientStats stats_{};
};

struct ShardedClientConfig {
  /// Per-shard connection settings; host and port are ignored (each shard's
  /// endpoint comes from its RingMember).
  ClientConfig base;
  /// Wrong-shard forwards tolerated per predict_batch call before giving
  /// up — each hop adopts the answering server's (fresher) ring and
  /// re-partitions, so a stable fleet resolves in one hop; a bound this low
  /// only trips when rings keep changing under the call.
  int max_forward_hops = 3;
};

/// Aggregated routing counters, on top of the per-shard ClientStats.
struct ShardedClientStats {
  std::uint64_t batches = 0;          ///< predict_batch calls
  std::uint64_t sub_batches = 0;      ///< per-shard wire batches issued
  std::uint64_t wrong_shard_hops = 0; ///< kWrongShard answers handled
  std::uint64_t ring_refreshes = 0;   ///< ring adoptions (hops + adopt_ring)
};

/// Ring-routed client over a fleet of PredictionServers (DESIGN.md §11):
/// partitions each batch by key ownership, round-trips one sub-batch per
/// owning shard, and stitches the results back in request order —
/// bit-identical to a single-server (or in-process) evaluation, since every
/// item is served by exactly one node either way.
///
/// Staleness heals in-band: a server that no longer (or never did) own a
/// key answers kWrongShard with its current ring; the client adopts it,
/// re-partitions the unresolved items, and retries — at most
/// config.max_forward_hops times per call. The cached ring can also be
/// replaced explicitly with adopt_ring() (tests force stale-ring hops with
/// it).
///
/// Not thread-safe, like the per-shard clients it owns.
class ShardedPredictionClient {
 public:
  explicit ShardedPredictionClient(HashRing ring,
                                   ShardedClientConfig config = {});

  /// Round-trips one batch across the owning shards. Returns results
  /// aligned with `items`. Throws DataError when a shard stays unreachable
  /// through its retry budget or the hop bound is exhausted; RemoteError
  /// propagates unchanged.
  std::vector<Prediction> predict_batch(
      std::span<const WireRequestItem> items);

  /// Convenience single-request form.
  Prediction predict(const WireRequestItem& item);

  /// Replaces the cached ring (counts as a ring refresh).
  void adopt_ring(HashRing ring);

  const HashRing& ring() const { return ring_; }
  const ShardedClientStats& stats() const { return stats_; }

  /// The per-shard client for a ring member, created on first use (tests
  /// inspect per-shard stats through this).
  PredictionClient& client_for(const RingMember& member);

 private:
  HashRing ring_;
  ShardedClientConfig config_;
  /// Per-endpoint connections, keyed host:port — kept across ring changes
  /// (an endpoint that re-enters the ring reuses its connection).
  std::map<std::string, std::unique_ptr<PredictionClient>> clients_;
  ShardedClientStats stats_{};
};

}  // namespace fgcs::net
