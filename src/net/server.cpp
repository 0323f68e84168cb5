#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "net/event_loop.hpp"
#include "net/mpsc_queue.hpp"
#include "net/wire.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_span.hpp"

namespace fgcs::net {

namespace {

/// Per-event read cap when net.read.short fired at accept: small enough to
/// split the 16-byte header across reads (exercising FrameDecoder
/// reassembly), large enough that a golden batch still completes quickly.
constexpr std::size_t kShortReadBytes = 3;
/// Per-event write cap when net.write.stall fired at accept.
constexpr std::size_t kStallWriteBytes = 16;
/// listen(2) backlog of the server's one listening socket.
constexpr int kListenBacklog = 128;

[[noreturn]] void throw_errno(const std::string& what) {
  throw DataError("net server: " + what + ": " + std::strerror(errno));
}

/// The store's loader: `key` as a trace file path under `trace_root`.
MachineTrace load_trace(const std::string& trace_root, const std::string& key) {
  if (trace_root.empty())
    throw DataError("net server: unknown machine key '" + key + "'");
  // Sandbox the load: the key must canonicalize to a path under trace_root
  // (symlinks and ".." resolved), or the client is probing the filesystem.
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root = fs::weakly_canonical(trace_root, ec);
  const fs::path resolved =
      ec ? fs::path{} : fs::weakly_canonical(root / key, ec);
  const auto [mismatch_root, ignored] =
      std::mismatch(root.begin(), root.end(), resolved.begin(),
                    resolved.end());
  if (ec || root.empty() || mismatch_root != root.end())
    throw DataError("net server: machine key '" + key +
                    "' is not a trace under the configured root");
  // Loading throws DataError itself when the path is not a readable trace.
  return MachineTrace::load_file(resolved.string());
}

}  // namespace

ServerStats& ServerStats::operator+=(const ServerStats& other) {
  accepted += other.accepted;
  dropped += other.dropped;
  active += other.active;
  frames += other.frames;
  requests += other.requests;
  predictions += other.predictions;
  responses += other.responses;
  errors += other.errors;
  wrong_shard += other.wrong_shard;
  gossip_syncs += other.gossip_syncs;
  appends += other.appends;
  append_samples += other.append_samples;
  append_duplicates += other.append_duplicates;
  days_closed += other.days_closed;
  days_retired += other.days_retired;
  rx_bytes += other.rx_bytes;
  tx_bytes += other.tx_bytes;
  return *this;
}

// ---------------------------------------------------------------------------
// Reactor: one thread, one EventLoop, one disjoint set of connections.

class PredictionServer::Reactor {
 public:
  Reactor(PredictionServer& server, unsigned index);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates, binds, and registers the server's one listening socket on
  /// this reactor (always reactor 0); returns the bound port.
  std::uint16_t open_listener(std::uint16_t port);

  /// Thread body: dispatch this reactor's loop until stop().
  void run();
  void stop_loop() { loop_.stop(); }

  /// Post-join teardown: waits out in-flight pool tasks, reclaims queued
  /// inbox nodes, and closes every owned descriptor. Idempotent.
  void shutdown();

  /// Acceptor-side entry: transfers a freshly accepted connection (plus its
  /// per-accept failpoint flags) to this reactor.
  void enqueue_adopt(int fd, bool short_reads, bool stalled_writes);

  ServerStats snapshot() const;

 private:
  struct Connection {
    int fd = -1;
    /// Guards async completions against fd reuse: a completion whose
    /// generation no longer matches the connection at that fd is dropped.
    std::uint64_t generation = 0;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_sent = 0;
    /// Frames received but not yet processed; drained strictly in order,
    /// one in-flight batch per connection, so pipelined requests are
    /// answered FIFO.
    std::deque<Frame> pending;
    bool busy = false;          ///< a predict_batch for this conn is in the pool
    bool short_reads = false;   ///< net.read.short fired at accept
    bool stalled_writes = false;///< net.write.stall fired at accept
    bool want_writable = false; ///< EPOLLOUT currently registered
  };

  /// One message in the reactor's lock-free inbox: either a connection
  /// being handed off by the accept thread, or an encoded response frame a
  /// pool worker finished for one of this reactor's connections.
  struct InboxNode {
    InboxNode* next = nullptr;
    enum class Kind { kAdopt, kCompletion, kAppendDone } kind = Kind::kCompletion;
    int fd = -1;                       // kAdopt: the accepted socket
    bool short_reads = false;          // kAdopt
    bool stalled_writes = false;       // kAdopt
    std::uint64_t generation = 0;      // completions: owning connection
    std::vector<std::uint8_t> frame;   // completions: encoded wire frame
    bool is_error = false;             // completions: error vs response/ack
    std::uint64_t predictions = 0;     // kCompletion: results in the frame
    // kAppendDone: the store's bookkeeping, so the owning reactor
    // attributes the ingest counters (stats() stays the exact sum of
    // reactor snapshots — no store-global counter to drift).
    AppendResult appended;
  };

  void wake();
  void handle_accept(std::uint32_t events);
  void drain_inbox(std::uint32_t events);
  void adopt(int fd, bool short_reads, bool stalled_writes);
  void handle_connection(int fd, std::uint32_t events);
  void pump(Connection& conn);
  void dispatch_request(Connection& conn, std::span<const std::uint8_t> payload);
  void dispatch_append(Connection& conn, std::span<const std::uint8_t> payload);
  /// Runs `job(node)` on the pool for `conn` and hands the node back
  /// through the inbox; the job fills node.frame, and a throw becomes an
  /// error frame. Marks `conn` busy until complete() sees the node.
  template <typename Job>
  void run_on_pool(Connection& conn, InboxNode::Kind kind, Job job);
  void complete(const InboxNode& node);
  /// Counts an error and answers `conn` with an error frame.
  void reject(Connection& conn, std::string_view message, bool retryable);
  void send_frame(Connection& conn, FrameType type,
                  std::span<const std::uint8_t> payload);
  void enqueue_bytes(Connection& conn, std::span<const std::uint8_t> bytes);
  void flush_outbox(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(int fd);

  PredictionServer& server_;
  const unsigned index_;

  EventLoop loop_;
  int listen_fd_ = -1;
  /// Held open so EMFILE at accept time can be drained: close it, accept
  /// the pending connection onto the freed descriptor, close that, reopen.
  int spare_fd_ = -1;
  /// Producers (pool workers, the accept thread) write here after pushing
  /// to inbox_; registered EPOLLIN in loop_, so the reactor wakes to drain.
  int notify_fd_ = -1;
  MpscQueue<InboxNode> inbox_;

  std::unordered_map<int, Connection> connections_;  // reactor thread only
  std::uint64_t next_generation_ = 0;                // reactor thread only
  /// Pool tasks submitted but not yet finished pushing their node; stop()
  /// waits this out before reclaiming the inbox.
  std::atomic<std::uint64_t> pending_tasks_{0};
  unsigned round_robin_next_ = 0;                    // accept thread only
  bool shutdown_done_ = false;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> predictions_{0};
  // Instruments shared with the global exposition: attached both to the
  // fleet-wide net.* series (summed across reactors) and to this reactor's
  // net.reactor.<i>.* series.
  Counter rx_bytes_;
  Counter tx_bytes_;
  Counter frames_;
  Counter requests_;
  Counter errors_;
  // Decentralized-registry instruments (registry.ring.* / registry.gossip.*
  // fleet-wide + net.reactor.<i>.*).
  Counter wrong_shard_;
  Counter gossip_syncs_;
  // Ingest instruments (ingest.* fleet-wide + net.reactor.<i>.ingest.*).
  Counter appends_;
  Counter append_samples_;
  Counter append_duplicates_;
  Counter days_closed_;
  Counter days_retired_;
  Histogram request_hist_{Histogram::default_latency_bounds()};
  std::vector<MetricsAttachment> metrics_attachments_;
};

namespace {
/// Set by Reactor::run() so handlers can assert strict connection
/// ownership: a connection's events and completions are only ever serviced
/// on its owning reactor's thread.
thread_local const void* t_current_reactor = nullptr;
}  // namespace

PredictionServer::Reactor::Reactor(PredictionServer& server, unsigned index)
    : server_(server), index_(index) {
  notify_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (notify_fd_ < 0) throw_errno("eventfd(reactor inbox)");
  loop_.add(notify_fd_, EPOLLIN,
            [this](std::uint32_t events) { drain_inbox(events); });

  MetricsRegistry& registry = MetricsRegistry::global();
  const std::string prefix = "net.reactor." + std::to_string(index_) + ".";
  const auto attach_both = [&](const char* name, Counter& counter) {
    metrics_attachments_.push_back(
        registry.attach(std::string("net.") + name, counter));
    metrics_attachments_.push_back(registry.attach(prefix + name, counter));
  };
  attach_both("rx.bytes.total", rx_bytes_);
  attach_both("tx.bytes.total", tx_bytes_);
  attach_both("frames.total", frames_);
  attach_both("requests.total", requests_);
  attach_both("errors.total", errors_);
  // Registry-routing series keep their own fleet-wide prefix (they are a
  // registry concern, not a transport one) but still shard per reactor.
  metrics_attachments_.push_back(
      registry.attach("registry.ring.wrong_shard.total", wrong_shard_));
  metrics_attachments_.push_back(
      registry.attach(prefix + "wrong_shard.total", wrong_shard_));
  metrics_attachments_.push_back(
      registry.attach("registry.gossip.syncs.served.total", gossip_syncs_));
  metrics_attachments_.push_back(
      registry.attach(prefix + "gossip.syncs.total", gossip_syncs_));
  // Ingest series live under their own fleet-wide prefix (they are a store
  // concern, not a transport one) but still shard per reactor.
  const auto attach_ingest = [&](const char* name, Counter& counter) {
    metrics_attachments_.push_back(
        registry.attach(std::string("ingest.") + name, counter));
    metrics_attachments_.push_back(
        registry.attach(prefix + "ingest." + name, counter));
  };
  attach_ingest("appends.total", appends_);
  attach_ingest("samples.total", append_samples_);
  attach_ingest("duplicates.total", append_duplicates_);
  attach_ingest("days.closed.total", days_closed_);
  attach_ingest("days.retired.total", days_retired_);
  metrics_attachments_.push_back(
      registry.attach("net.request.seconds", request_hist_));
  metrics_attachments_.push_back(
      registry.attach(prefix + "request.seconds", request_hist_));
}

PredictionServer::Reactor::~Reactor() { shutdown(); }

std::uint16_t PredictionServer::Reactor::open_listener(std::uint16_t port) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, server_.config_.host.c_str(), &address.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw DataError("net server: invalid listen address " +
                    server_.config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen on " + server_.config_.host + ":" +
                std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);

  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  loop_.add(listen_fd_, EPOLLIN,
            [this](std::uint32_t events) { handle_accept(events); });
  return ntohs(bound.sin_port);
}

void PredictionServer::Reactor::run() {
  t_current_reactor = this;
  loop_.run();
  t_current_reactor = nullptr;
}

void PredictionServer::Reactor::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // In-flight pool tasks hold `this`; they finish by pushing their node and
  // dropping pending_tasks_, after which the inbox can be reclaimed.
  while (pending_tasks_.load(std::memory_order_acquire) != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (InboxNode* node = inbox_.take_all(); node != nullptr;) {
    InboxNode* next = node->next;
    if (node->kind == InboxNode::Kind::kAdopt && node->fd >= 0)
      ::close(node->fd);
    delete node;
    node = next;
  }
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  active_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
  if (notify_fd_ >= 0) {
    ::close(notify_fd_);
    notify_fd_ = -1;
  }
}

void PredictionServer::Reactor::wake() {
  const std::uint64_t one = 1;
  // Best effort: a full eventfd counter still wakes the poller.
  [[maybe_unused]] const ssize_t n =
      ::write(notify_fd_, &one, sizeof(one));
}

void PredictionServer::Reactor::enqueue_adopt(int fd, bool short_reads,
                                              bool stalled_writes) {
  auto* node = new InboxNode;
  node->kind = InboxNode::Kind::kAdopt;
  node->fd = fd;
  node->short_reads = short_reads;
  node->stalled_writes = stalled_writes;
  inbox_.push(node);
  wake();
}

void PredictionServer::Reactor::handle_accept(std::uint32_t) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if ((errno == EMFILE || errno == ENFILE) && spare_fd_ >= 0) {
        // Out of descriptors with a connection still pending: the
        // level-triggered listen fd would re-fire forever. Spend the spare
        // fd to drain and refuse the connection, then reopen the reserve.
        ::close(spare_fd_);
        const int drained = ::accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (drained >= 0) {
          accepted_.fetch_add(1, std::memory_order_relaxed);
          dropped_.fetch_add(1, std::memory_order_relaxed);
          ::close(drained);
        }
        spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // EAGAIN (or transient error): wait for next event
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // The failpoint is evaluated exactly once per accept — before the
    // capacity check, so its evaluation count replays deterministically.
    const bool drop = FGCS_FAILPOINT("net.accept.drop");
    if (drop || server_.total_active_.load(std::memory_order_relaxed) >=
                    server_.config_.max_connections) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Per-accept failpoints are evaluated here on the accepting thread (so
    // their order is the accept order, deterministic for a sequential
    // driver) and travel with the connection on hand-off.
    const bool short_reads = FGCS_FAILPOINT("net.read.short");
    const bool stalled_writes = FGCS_FAILPOINT("net.write.stall");
    server_.total_active_.fetch_add(1, std::memory_order_relaxed);
    // Connections are dealt round-robin; at reactors=1 every target is 0.
    const unsigned target =
        round_robin_next_++ % static_cast<unsigned>(server_.reactors_.size());
    if (target == index_)
      adopt(fd, short_reads, stalled_writes);
    else
      server_.reactors_[target]->enqueue_adopt(fd, short_reads,
                                               stalled_writes);
  }
}

void PredictionServer::Reactor::adopt(int fd, bool short_reads,
                                      bool stalled_writes) {
  Connection conn;
  conn.fd = fd;
  conn.generation = ++next_generation_;
  conn.short_reads = short_reads;
  conn.stalled_writes = stalled_writes;
  connections_.emplace(fd, std::move(conn));
  active_.store(connections_.size(), std::memory_order_relaxed);
  loop_.add(fd, EPOLLIN,
            [this, fd](std::uint32_t events) { handle_connection(fd, events); });
}

void PredictionServer::Reactor::drain_inbox(std::uint32_t) {
  FGCS_REQUIRE_MSG(t_current_reactor == this || !server_.running(),
                   "inbox drained off the owning reactor thread");
  std::uint64_t value = 0;
  while (::read(notify_fd_, &value, sizeof(value)) > 0) {
  }
  for (InboxNode* node = inbox_.take_all(); node != nullptr;) {
    InboxNode* next = node->next;
    if (node->kind == InboxNode::Kind::kAdopt)
      adopt(node->fd, node->short_reads, node->stalled_writes);
    else
      complete(*node);
    delete node;
    node = next;
  }
}

void PredictionServer::Reactor::handle_connection(int fd,
                                                 std::uint32_t events) {
  FGCS_REQUIRE_MSG(t_current_reactor == this,
                   "connection serviced off its owning reactor");
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(fd);
    return;
  }
  if (events & EPOLLOUT) {
    flush_outbox(it->second);
    update_write_interest(it->second);
  }
  if (!(events & EPOLLIN)) return;

  Connection& conn = it->second;
  std::uint8_t buffer[64 * 1024];
  const std::size_t cap = conn.short_reads ? kShortReadBytes : sizeof(buffer);
  for (;;) {
    const ssize_t n = ::read(fd, buffer, cap);
    if (n == 0) {
      close_connection(fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      close_connection(fd);
      return;
    }
    rx_bytes_.add(static_cast<std::uint64_t>(n));
    try {
      conn.decoder.feed({buffer, static_cast<std::size_t>(n)});
      while (std::optional<Frame> frame = conn.decoder.next())
        conn.pending.push_back(std::move(*frame));
      pump(conn);
    } catch (const DataError& error) {
      // Framing desync: answer best-effort (the outbox may never drain on a
      // desynced peer, so write the error frame directly) and close.
      // MSG_NOSIGNAL: a peer that already hung up must cost this
      // connection, not a process-killing SIGPIPE.
      errors_.add(1);
      const std::vector<std::uint8_t> frame = encode_frame(
          FrameType::kError, encode_error(error.what(), /*retryable=*/true));
      const ssize_t written =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (written > 0) tx_bytes_.add(static_cast<std::uint64_t>(written));
      close_connection(fd);
      return;
    }
    // Level-triggered epoll re-arms the fd while bytes remain buffered, so
    // a capped connection keeps making progress one nibble per event.
    if (conn.short_reads) break;
  }
  update_write_interest(conn);
}

void PredictionServer::Reactor::pump(Connection& conn) {
  // One in-flight batch per connection: responses come back in request
  // order even when the client pipelines. Frames that fail synchronously
  // (wrong type, injected corruption, undecodable payload) answer in the
  // same strict order.
  while (!conn.busy && !conn.pending.empty()) {
    const Frame frame = std::move(conn.pending.front());
    conn.pending.pop_front();
    frames_.add(1);
    if (frame.type == FrameType::kGossipSync) {
      // Anti-entropy: merge the peer's table into the attached agent and
      // answer ours. Handled before the data-frame failpoints so gossip
      // traffic never perturbs a pinned net.* chaos replay.
      try {
        const GossipMessage ack =
            server_.handle_gossip_sync(decode_gossip(frame.payload));
        gossip_syncs_.add(1);
        send_frame(conn, FrameType::kGossipAck, encode_gossip(ack));
      } catch (const std::exception& error) {
        // No agent attached or an undecodable table: semantic rejection.
        reject(conn, error.what(), /*retryable=*/false);
      }
      continue;
    }
    if (frame.type != FrameType::kRequest &&
        frame.type != FrameType::kAppendSamples) {
      // Only clients send responses/errors/acks; answer and keep the
      // connection — framing is still intact.
      reject(conn, "unexpected frame type on server", /*retryable=*/false);
      continue;
    }
    // Deterministically injectable "the bytes lied": treat this frame as
    // corrupt without decoding it. Evaluated once per received data frame
    // (request or append), in arrival order on the owning reactor.
    if (FGCS_FAILPOINT("net.frame.corrupt")) {
      reject(conn, "injected: net.frame.corrupt", /*retryable=*/true);
      continue;
    }
    if (frame.type == FrameType::kAppendSamples) {
      if (!server_.config_.ingest) {
        // A serving-only fleet: appends are a client misconfiguration, not
        // transport trouble — reject without retry, keep the connection.
        reject(conn, "ingest is disabled on this server", /*retryable=*/false);
        continue;
      }
      // Injected ingest backpressure: the batch is dropped before decoding,
      // but appends are idempotent, so the client may retry the same bytes
      // on the same connection — retryable WITHOUT the close that framing
      // errors earn (the stream is still in sync). Evaluated once per
      // append frame, in arrival order on the owning reactor.
      if (FGCS_FAILPOINT("ingest.append.drop")) {
        reject(conn, "injected: ingest.append.drop", /*retryable=*/true);
        continue;
      }
      try {
        dispatch_append(conn, frame.payload);
      } catch (const std::exception& error) {
        // Undecodable append payload: same contract as a bad request.
        reject(conn, error.what(), /*retryable=*/false);
      }
      continue;
    }
    try {
      dispatch_request(conn, frame.payload);
    } catch (const std::exception& error) {
      // Undecodable payload, unknown machine, or a semantic precondition
      // the prediction stack rejected before dispatch: the *connection* is
      // fine, the request is not — and resending the same bytes cannot
      // change the outcome, so the error frame is marked non-retryable.
      reject(conn, error.what(), /*retryable=*/false);
    }
  }
}

void PredictionServer::Reactor::dispatch_request(
    Connection& conn, std::span<const std::uint8_t> payload) {
  std::vector<WireRequestItem> items = decode_request(payload);
  requests_.add(1);
  // Shard routing: with an identity and a ring installed, a batch naming
  // any key the ring assigns to another node is refused whole — the
  // kWrongShard answer carries the current ring, so the client's refetch is
  // implicit. All-or-nothing keeps the response contract one-frame-per-
  // request-frame and forces the client to re-partition with a ring at
  // least as fresh as ours.
  if (!server_.config_.node_id.empty()) {
    if (const std::shared_ptr<const HashRing> ring = server_.ring()) {
      const bool owns_all = std::all_of(
          items.begin(), items.end(), [&](const WireRequestItem& item) {
            const RingMember* owner = ring->owner(item.machine_key);
            return owner != nullptr &&
                   owner->node_id == server_.config_.node_id;
          });
      if (!owns_all) {
        wrong_shard_.add(1);
        send_frame(conn, FrameType::kWrongShard, encode_wrong_shard(*ring));
        return;
      }
    }
  }
  run_on_pool(conn, InboxNode::Kind::kCompletion,
              [this, items = std::move(items)](InboxNode& node) {
                TraceSpan span("net.request", &request_hist_);
                // Resolved here, off the event loop (a first read may load a
                // file), and pinned for the batch: a day close or an eviction
                // swaps the store's pointer, never frees a trace in use.
                std::vector<std::shared_ptr<const MachineTrace>> pins;
                std::vector<BatchRequest> batch;
                pins.reserve(items.size());
                batch.reserve(items.size());
                for (const WireRequestItem& item : items) {
                  pins.push_back(server_.store_->load(item.machine_key));
                  batch.push_back(BatchRequest{.trace = pins.back().get(),
                                               .request = item.request});
                }
                const std::vector<Prediction> results =
                    server_.service_->predict_batch(batch);
                node.predictions = results.size();
                node.frame = encode_frame(FrameType::kResponse,
                                          encode_response(results));
              });
}

void PredictionServer::Reactor::dispatch_append(
    Connection& conn, std::span<const std::uint8_t> payload) {
  // Decode on the reactor (so malformed payloads answer synchronously, like
  // requests), run the store append on the pool (a day-close copies the
  // whole history — never on the event loop), ack through the inbox.
  run_on_pool(conn, InboxNode::Kind::kAppendDone,
              [this, request = decode_append(payload)](InboxNode& node) {
                const MachineSpec spec{
                    .machine_id = request.machine_id,
                    .epoch_day_of_week = request.epoch_day_of_week,
                    .sampling_period = request.sampling_period,
                    .total_mem_mb = static_cast<int>(request.total_mem_mb)};
                node.appended = server_.store_->append(
                    spec, request.first_sample_index, request.samples);
                const WireAppendAck ack{
                    .accepted = node.appended.accepted,
                    .duplicates = node.appended.duplicates,
                    .next_index = node.appended.next_index,
                    .days_closed = node.appended.days_closed,
                    .days_retired = node.appended.days_retired,
                    .generation = server_.service_->history_generation(
                        request.machine_id)};
                node.frame = encode_frame(FrameType::kAppendAck,
                                          encode_append_ack(ack));
              });
}

template <typename Job>
void PredictionServer::Reactor::run_on_pool(Connection& conn,
                                            InboxNode::Kind kind, Job job) {
  auto* node = new InboxNode;
  node->kind = kind;
  node->fd = conn.fd;
  node->generation = conn.generation;
  pending_tasks_.fetch_add(1, std::memory_order_acq_rel);
  try {
    ThreadPool::default_pool().submit([this, node, job = std::move(job)] {
      const auto fail = [node](const std::exception& error, bool retryable) {
        node->is_error = true;
        node->frame = encode_frame(FrameType::kError,
                                   encode_error(error.what(), retryable));
      };
      try {
        job(*node);
      } catch (const RollupError& error) {
        // Injected rollup failure: the store kept the batch's earlier
        // samples and the day buffer intact, so a client retry of the same
        // bytes dedups the overlap and resumes the close — retryable, and
        // the connection stays up (framing never desynced).
        fail(error, /*retryable=*/true);
      } catch (const std::exception& error) {
        // Unknown machine, spec mismatch, index gap: semantic rejection a
        // retry cannot fix.
        fail(error, /*retryable=*/false);
      }
      // Push before dropping pending_tasks_: shutdown() reclaims the inbox
      // only after the counter drains to zero.
      inbox_.push(node);
      wake();
      pending_tasks_.fetch_sub(1, std::memory_order_release);
    });
  } catch (...) {
    pending_tasks_.fetch_sub(1, std::memory_order_release);
    delete node;
    throw;
  }
  conn.busy = true;
}

void PredictionServer::Reactor::complete(const InboxNode& node) {
  const auto it = connections_.find(node.fd);
  // The connection may have closed (or its fd been reused by a later
  // accept) while the batch was in the pool; the generation mismatch makes
  // the stale completion drop harmlessly.
  if (it == connections_.end() || it->second.generation != node.generation)
    return;
  Connection& conn = it->second;
  conn.busy = false;
  if (node.is_error) {
    errors_.add(1);
  } else if (node.kind == InboxNode::Kind::kAppendDone) {
    appends_.add(1);
    append_samples_.add(node.appended.accepted);
    append_duplicates_.add(node.appended.duplicates);
    days_closed_.add(node.appended.days_closed);
    days_retired_.add(node.appended.days_retired);
  } else {
    responses_.fetch_add(1, std::memory_order_relaxed);
    predictions_.fetch_add(node.predictions, std::memory_order_relaxed);
  }
  enqueue_bytes(conn, node.frame);
  pump(conn);
}

void PredictionServer::Reactor::reject(Connection& conn,
                                       std::string_view message,
                                       bool retryable) {
  errors_.add(1);
  send_frame(conn, FrameType::kError, encode_error(message, retryable));
}

void PredictionServer::Reactor::send_frame(
    Connection& conn, FrameType type, std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  enqueue_bytes(conn, frame);
}

void PredictionServer::Reactor::enqueue_bytes(
    Connection& conn, std::span<const std::uint8_t> bytes) {
  // Compact the outbox before growing it so a long-lived connection's
  // buffer stays proportional to unsent bytes.
  if (conn.outbox_sent > 0) {
    conn.outbox.erase(conn.outbox.begin(),
                      conn.outbox.begin() +
                          static_cast<std::ptrdiff_t>(conn.outbox_sent));
    conn.outbox_sent = 0;
  }
  conn.outbox.insert(conn.outbox.end(), bytes.begin(), bytes.end());
  flush_outbox(conn);
  update_write_interest(conn);
}

void PredictionServer::Reactor::flush_outbox(Connection& conn) {
  while (conn.outbox_sent < conn.outbox.size()) {
    const std::size_t remaining = conn.outbox.size() - conn.outbox_sent;
    const std::size_t chunk =
        conn.stalled_writes ? std::min(kStallWriteBytes, remaining)
                            : remaining;
    // MSG_NOSIGNAL: a client that closed mid-response must not SIGPIPE the
    // whole server; the EPIPE surfaces as EPOLLERR/HUP and closes only this
    // connection.
    const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
                             chunk, MSG_NOSIGNAL);
    if (n < 0) {
      // EAGAIN: wait for EPOLLOUT. Hard errors surface as EPOLLERR/HUP on
      // the next poll, which closes the connection.
      return;
    }
    tx_bytes_.add(static_cast<std::uint64_t>(n));
    conn.outbox_sent += static_cast<std::size_t>(n);
    // A stalled connection sends one capped chunk per event and yields; the
    // EPOLLOUT interest registered by the caller paces the rest.
    if (conn.stalled_writes) break;
  }
  if (conn.outbox_sent == conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_sent = 0;
  }
}

void PredictionServer::Reactor::update_write_interest(Connection& conn) {
  const bool want = conn.outbox_sent < conn.outbox.size();
  if (want == conn.want_writable) return;
  loop_.modify(conn.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
  conn.want_writable = want;
}

void PredictionServer::Reactor::close_connection(int fd) {
  loop_.remove(fd);
  ::close(fd);
  connections_.erase(fd);
  active_.store(connections_.size(), std::memory_order_relaxed);
  server_.total_active_.fetch_sub(1, std::memory_order_relaxed);
}

ServerStats PredictionServer::Reactor::snapshot() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  stats.frames = frames_.value();
  stats.requests = requests_.value();
  stats.predictions = predictions_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.errors = errors_.value();
  stats.wrong_shard = wrong_shard_.value();
  stats.gossip_syncs = gossip_syncs_.value();
  stats.appends = appends_.value();
  stats.append_samples = append_samples_.value();
  stats.append_duplicates = append_duplicates_.value();
  stats.days_closed = days_closed_.value();
  stats.days_retired = days_retired_.value();
  stats.rx_bytes = rx_bytes_.value();
  stats.tx_bytes = tx_bytes_.value();
  return stats;
}

// ---------------------------------------------------------------------------
// PredictionServer: reactor fleet lifecycle + aggregation.

PredictionServer::PredictionServer(ServerConfig config,
                                   std::shared_ptr<PredictionService> service)
    : config_(std::move(config)), service_(std::move(service)) {
  FGCS_REQUIRE(service_ != nullptr);
  FGCS_REQUIRE(config_.max_connections >= 1);
  FGCS_REQUIRE_MSG(config_.reactors >= 1, "need at least one reactor");
  // The day-closed callback runs on whichever pool worker drove the
  // append, under the machine's store lock; invalidate() is thread-safe
  // and cheap (one generation bump). One closed day ⇒ exactly one bump —
  // tests/net/ingest_differential_test.cpp pins that.
  store_ = std::make_unique<TraceStore>(
      TraceStoreConfig{.retention_days = config_.ingest_retention_days,
                       .max_loaded = config_.max_loaded_traces},
      [this](const std::string& machine_id) {
        service_->invalidate(machine_id);
      },
      std::bind_front(&load_trace, config_.trace_root));
  reactors_.reserve(config_.reactors);
  for (unsigned i = 0; i < config_.reactors; ++i)
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
}

PredictionServer::~PredictionServer() { stop(); }

unsigned PredictionServer::reactor_count() const {
  return static_cast<unsigned>(reactors_.size());
}

void PredictionServer::start() {
  FGCS_REQUIRE_MSG(!started_,
                   "server already started (one start/stop cycle per server)");
  bound_port_ = reactors_[0]->open_listener(config_.port);

  started_ = true;
  running_.store(true, std::memory_order_release);
  threads_.reserve(reactors_.size());
  for (const std::unique_ptr<Reactor>& reactor : reactors_)
    threads_.emplace_back([r = reactor.get()] { r->run(); });
}

void PredictionServer::stop() {
  if (!threads_.empty()) {
    for (const std::unique_ptr<Reactor>& reactor : reactors_)
      reactor->stop_loop();
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }
  running_.store(false, std::memory_order_release);
  for (const std::unique_ptr<Reactor>& reactor : reactors_)
    reactor->shutdown();
  total_active_.store(0, std::memory_order_relaxed);
}

void PredictionServer::set_ring(HashRing ring) {
  auto snapshot = std::make_shared<const HashRing>(std::move(ring));
  std::lock_guard<std::mutex> lock(ring_mutex_);
  ring_ = std::move(snapshot);
}

std::shared_ptr<const HashRing> PredictionServer::ring() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return ring_;
}

void PredictionServer::attach_gossip(GossipAgent* agent) {
  std::lock_guard<std::mutex> lock(gossip_mutex_);
  gossip_agent_ = agent;
}

GossipMessage PredictionServer::handle_gossip_sync(const GossipMessage& sync) {
  std::lock_guard<std::mutex> lock(gossip_mutex_);
  if (gossip_agent_ == nullptr)
    throw DataError("net server: gossip is not enabled on this server");
  return gossip_agent_->handle_sync(sync);
}

std::pair<std::vector<std::string>, GossipMessage>
PredictionServer::gossip_tick() {
  std::lock_guard<std::mutex> lock(gossip_mutex_);
  if (gossip_agent_ == nullptr)
    throw DataError("net server: gossip is not enabled on this server");
  std::vector<std::string> peers = gossip_agent_->tick();
  return {std::move(peers), gossip_agent_->make_sync()};
}

void PredictionServer::gossip_merge_ack(const GossipMessage& ack) {
  std::lock_guard<std::mutex> lock(gossip_mutex_);
  if (gossip_agent_ == nullptr)
    throw DataError("net server: gossip is not enabled on this server");
  gossip_agent_->handle_ack(ack);
}

HashRing PredictionServer::gossip_ring() {
  std::lock_guard<std::mutex> lock(gossip_mutex_);
  if (gossip_agent_ == nullptr)
    throw DataError("net server: gossip is not enabled on this server");
  return gossip_agent_->ring();
}

ServerStats PredictionServer::stats() const {
  // The aggregate IS the sum of the shards — there is no separate global
  // counter set that could double-count or drift (the PR-6 stats fix).
  ServerStats total;
  for (const std::unique_ptr<Reactor>& reactor : reactors_)
    total += reactor->snapshot();
  return total;
}

std::vector<ServerStats> PredictionServer::reactor_stats() const {
  std::vector<ServerStats> stats;
  stats.reserve(reactors_.size());
  for (const std::unique_ptr<Reactor>& reactor : reactors_)
    stats.push_back(reactor->snapshot());
  return stats;
}

}  // namespace fgcs::net
