// PredictionServer — networked serving front-end over PredictionService
// (DESIGN.md §9, wire layout in docs/WIRE.md).
//
// The server is one *reactor*: a single thread running an epoll EventLoop
// that owns the listening socket and every connection end to end. It
// accepts connections, reassembles their frames, dispatches decoded request
// batches into the shared PredictionService via the persistent thread pool,
// and writes their outboxes. A connection's fd, decoder state and outbox
// are only ever touched by the reactor thread. The reactor only moves
// bytes; the pool does the Q/H estimates and Eq. 3 solves.
//
// Traces: every served machine lives in the server's one TraceStore under
// the key clients name it by — added with add_trace, streamed in, or loaded
// once per server from under config.trace_root, taking its key as machine
// id — so store, prediction cache and invalidation agree on one history.
//
// Request dispatch is asynchronous: the reactor decodes a request batch,
// submits trace resolution, predict_batch and response encoding to the
// thread pool, and goes back to polling; the pool worker pushes the encoded
// response onto the reactor's lock-free MPSC inbox (net/mpsc_queue.hpp) and
// wakes its eventfd, and the reactor appends it to the connection's outbox.
// A per-connection generation counter makes completions for already-closed
// (and possibly fd-reused) connections drop harmlessly. Frames a connection
// pipelines while a batch is in flight are queued and answered strictly in
// arrival order.
//
// Failure semantics: a malformed *payload* (undecodable request, unknown
// machine key, unloadable trace) earns a non-retryable error frame and the
// connection keeps serving; a malformed *frame* (bad
// magic/version/length/checksum) means the stream is desynced, so the
// server sends a best-effort retryable error frame and closes that
// connection. All socket writes use MSG_NOSIGNAL; fd exhaustion at accept
// time is drained through a reserved spare descriptor.
//
// Fault injection (tests/chaos/net_chaos_test.cpp): failpoints are
// evaluated at points whose global order is deterministic for a sequential
// driver — per accepted connection (net.accept.drop, net.read.short,
// net.write.stall) or per received frame (net.frame.corrupt, in arrival
// order) — never per read()/write() call, so FailpointStats replay exactly.
//
// Streaming ingest (config.ingest): kAppendSamples frames route through the
// same dispatch machinery — the reactor decodes the batch, the thread pool
// runs the TraceStore append (so the reactor never blocks on a day rollup),
// and the ack rides the MPSC inbox back like any completion. An append
// extends whatever history the store holds or can load for its key. Day
// closes invalidate the machine in the PredictionService from inside the
// store callback, and prediction batches read pinned immutable snapshots,
// so serving and ingestion never contend on trace data.
//
// Decentralized registry (DESIGN.md §11): a server given a node_id and a
// ring (set_ring()) refuses request batches containing keys the ring
// assigns elsewhere, answering kWrongShard with its current ring so the
// client can re-route — the refusal carries the refetch. A gossip agent
// attached with attach_gossip() answers kGossipSync frames with the merged
// table as kGossipAck; both paths are mutex-guarded so the reactor can
// serve them while the owner ticks the agent.
//
// Observability: the reactor's instruments are attached once to the global
// registry as the server's series (net.rx.bytes.total, net.tx.bytes.total,
// net.frames.total, net.requests.total, net.errors.total,
// net.request.seconds, registry.*, ingest.*); servers in one process fold
// into the same series. stats() snapshots the same instruments.
//
// Threading: start() spawns the reactor thread. add_trace(), stats() and
// stop() are safe from any thread; snapshots are exact after stop() (the
// join orders every reactor-thread increment).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/prediction_service.hpp"
#include "ishare/gossip.hpp"
#include "ishare/hash_ring.hpp"
#include "trace/machine_trace.hpp"
#include "trace/trace_store.hpp"

namespace fgcs::net {

struct ServerConfig {
  /// Listen address; loopback by default (this is a trusted-fleet protocol).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// When non-empty, keys the store lacks load as trace file paths that must
  /// canonicalize to under this directory; empty (the default) disables
  /// filesystem loading, so clients can only name added or streamed
  /// machines. Held ids always win over paths.
  std::string trace_root;
  /// Cap on path-loaded machines held at once, server-wide
  /// (TraceStoreConfig::max_loaded); the least recently read one that has
  /// never taken an append is evicted, at any time, to load another.
  std::size_t max_loaded_traces = 32;
  /// Accept kAppendSamples frames: monitors stream packed samples into the
  /// store, extending an added or file-backed history or registering a new
  /// machine, and every closed day bumps the machine's PredictionService
  /// generation so memoized predictions refresh. Off by default — a
  /// serving-only fleet rejects appends with a non-retryable error.
  bool ingest = false;
  /// Sliding per-machine history budget in days for machines that take
  /// appends (TraceStoreConfig::retention_days); 0 keeps all history.
  std::int64_t ingest_retention_days = 0;
  /// This server's identity on the registry ring (DESIGN.md §11). Empty
  /// (the default) serves every key — the single-registry behavior. When
  /// set *and* a ring has been installed with set_ring(), a request batch
  /// containing any key the ring assigns to a different node is answered
  /// with a kWrongShard frame carrying the current ring instead of being
  /// served.
  std::string node_id;
};

/// Monotonic serving counters (PredictionServer::stats()). operator+=
/// sums several servers' counters field by field.
struct ServerStats {
  std::uint64_t accepted = 0;      ///< connections accepted
  std::uint64_t dropped = 0;       ///< closed at accept (failpoint/capacity)
  std::uint64_t active = 0;        ///< currently open connections
  std::uint64_t frames = 0;        ///< complete frames received
  std::uint64_t requests = 0;      ///< request frames decoded
  std::uint64_t predictions = 0;   ///< predictions served
  std::uint64_t responses = 0;     ///< response frames sent
  std::uint64_t errors = 0;        ///< error frames sent
  std::uint64_t wrong_shard = 0;   ///< batches refused with kWrongShard
  std::uint64_t gossip_syncs = 0;  ///< kGossipSync frames answered
  std::uint64_t appends = 0;          ///< append frames acked
  std::uint64_t append_samples = 0;   ///< samples accepted into the store
  std::uint64_t append_duplicates = 0;///< retransmitted samples skipped
  std::uint64_t days_closed = 0;      ///< day rollups completed
  std::uint64_t days_retired = 0;     ///< history days retired by retention
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;

  ServerStats& operator+=(const ServerStats& other);
};

class PredictionServer {
 public:
  /// `service` must be non-null; sharing one service between the server and
  /// in-process callers shares its memoized cache (and its invalidate()).
  PredictionServer(ServerConfig config,
                   std::shared_ptr<PredictionService> service);
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Adopts a trace into the store, keyed by its machine_id (appends then
  /// continue it). Throws DataError when the store already holds that id.
  void add_trace(MachineTrace trace) { store_->adopt_trace(std::move(trace)); }

  /// Binds the listener and spawns the reactor thread. Throws DataError
  /// when a socket cannot be set up.
  void start();

  /// Stops the loop, joins the reactor thread, waits out in-flight
  /// batches, and closes every connection. Idempotent.
  void stop();

  /// The bound port (valid after start(); resolves port 0 to the real one).
  std::uint16_t port() const { return bound_port_; }
  const std::string& host() const { return config_.host; }

  const std::shared_ptr<PredictionService>& service() const {
    return service_;
  }

  /// The store every served trace lives in; never null. Safe to use from
  /// any thread (snapshots are immutable).
  TraceStore* store() const { return store_.get(); }

  /// Installs (or replaces) the registry ring this server routes by.
  /// Thread-safe, callable while serving — the reactor picks up the new
  /// ring on its next batch. With config.node_id empty the ring is only echoed in
  /// kWrongShard frames, never enforced.
  void set_ring(HashRing ring);

  /// The current ring, or nullptr when none was installed. The snapshot is
  /// immutable; a concurrent set_ring() swaps the pointer, not the object.
  std::shared_ptr<const HashRing> ring() const;

  /// Attaches the gossip agent answering this server's kGossipSync frames
  /// (nullptr detaches). The agent must outlive the attachment; the server
  /// serializes all access through an internal mutex, so the owner may tick
  /// the same agent from its own thread under the same contract.
  void attach_gossip(GossipAgent* agent);

  /// Merges one received sync into the attached agent and returns the ack.
  /// Throws DataError when no agent is attached. Thread-safe.
  GossipMessage handle_gossip_sync(const GossipMessage& sync);

  /// Owner-side gossip round under the same mutex as handle_gossip_sync:
  /// ticks the attached agent and returns the peer ids to push to plus the
  /// sync to send them. Throws DataError when no agent is attached.
  std::pair<std::vector<std::string>, GossipMessage> gossip_tick();

  /// Merges a peer's ack into the attached agent (no-op contractually only
  /// for a detached agent, which throws). Thread-safe.
  void gossip_merge_ack(const GossipMessage& ack);

  /// The attached agent's current routing ring (under the mutex). Callers
  /// typically follow with set_ring() to publish it to the reactor.
  HashRing gossip_ring();

  /// Serving counters. Safe from any thread while serving; exact after
  /// stop().
  ServerStats stats() const;

 private:
  friend class Reactor;
  class Reactor;

  ServerConfig config_;
  std::shared_ptr<PredictionService> service_;
  /// Every served trace. Its day-closed callback invalidates the machine in
  /// service_, so one generation bump per closed day is structural, not
  /// best-effort; its loader reads trace_root files.
  std::unique_ptr<TraceStore> store_;

  /// Registry ring for shard routing; swapped whole under ring_mutex_ so
  /// the reactor reads a consistent immutable snapshot.
  std::shared_ptr<const HashRing> ring_;
  mutable std::mutex ring_mutex_;
  /// Gossip agent answering kGossipSync (fgcs_serve owns it); guarded by
  /// gossip_mutex_ against concurrent reactor handling and owner ticks.
  GossipAgent* gossip_agent_ = nullptr;
  std::mutex gossip_mutex_;
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
  std::uint16_t bound_port_ = 0;
  bool started_ = false;
};

}  // namespace fgcs::net
