#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace fgcs::net {

namespace {

using Clock = std::chrono::steady_clock;

/// poll() timeout until `deadline`: whole milliseconds rounded UP (a
/// truncated wait could wake just before the deadline), at least 1 and at
/// most 60 s.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  return static_cast<int>(std::clamp<long long>(left, 1, 60'000));
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw DataError("net client: " + what + ": " + std::strerror(errno));
}

}  // namespace

PredictionClient::PredictionClient(ClientConfig config)
    : config_(std::move(config)), backoff_rng_(config_.backoff.backoff_seed) {
  FGCS_REQUIRE(config_.port != 0);
  FGCS_REQUIRE(config_.max_attempts >= 1);
  FGCS_REQUIRE(config_.connect_timeout > 0.0 && config_.request_timeout > 0.0);
}

PredictionClient::~PredictionClient() { close(); }

void PredictionClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Prediction PredictionClient::predict(const WireRequestItem& item) {
  return predict_batch({&item, 1}).front();
}

template <typename Result, typename Attempt>
Result PredictionClient::with_retries(const char* what, Attempt&& attempt_fn) {
  std::string last_failure = "no attempts made";
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      // The scheduler helper computes min(cap, base·factor^retry) with
      // seeded jitter; its SimTime result is read here as milliseconds.
      const SimTime pause_ms =
          retry_backoff_delay(config_.backoff, attempt - 1, backoff_rng_);
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    }
    ++stats_.attempts;
    try {
      return attempt_fn();
    } catch (const WrongShardError&) {
      // Not a failure at all: the server answered completely (the stream is
      // still in sync, so the socket stays open) and the answer is "ask the
      // ring". Routing is the sharded client's job, not this retry loop's.
      throw;
    } catch (const RemoteError&) {
      // The server rejected the call itself — retrying identical bytes
      // cannot succeed, so surface it now.
      close();
      throw;
    } catch (const DataError& error) {
      // Transport-level failures (and retryable server rejections) retry:
      // both prediction batches and sample appends are idempotent.
      last_failure = error.what();
      close();
    }
  }
  throw DataError(std::string("net client: ") + what + " failed after " +
                  std::to_string(config_.max_attempts) +
                  " attempts; last: " + last_failure);
}

std::vector<Prediction> PredictionClient::predict_batch(
    std::span<const WireRequestItem> items) {
  ++stats_.batches;
  const std::string what = "batch of " + std::to_string(items.size());
  return with_retries<std::vector<Prediction>>(what.c_str(), [&] {
    const Frame frame = round_trip(
        FrameType::kRequest, [&] { return encode_request(items); },
        FrameType::kResponse, "request");
    std::vector<Prediction> results = decode_response(frame.payload);
    if (results.size() != items.size())
      throw DataError("net client: response carries " +
                      std::to_string(results.size()) + " predictions for " +
                      std::to_string(items.size()) + " requests");
    return results;
  });
}

WireAppendAck PredictionClient::append_samples(
    const WireAppendRequest& request) {
  ++stats_.appends;
  const std::string what =
      "append of " + std::to_string(request.samples.size()) + " samples";
  // A retryable rejection (injected drop, rollup failure) still closes and
  // reconnects in with_retries, which the append's idempotence makes safe.
  return with_retries<WireAppendAck>(what.c_str(), [&] {
    return decode_append_ack(
        round_trip(
            FrameType::kAppendSamples, [&] { return encode_append(request); },
            FrameType::kAppendAck, "append")
            .payload);
  });
}

GossipMessage PredictionClient::gossip_sync(const GossipMessage& sync) {
  ++stats_.gossips;
  const std::string what =
      "gossip sync of " + std::to_string(sync.members.size()) + " members";
  return with_retries<GossipMessage>(what.c_str(), [&] {
    return decode_gossip(
        round_trip(
            FrameType::kGossipSync, [&] { return encode_gossip(sync); },
            FrameType::kGossipAck, "gossip")
            .payload);
  });
}

template <typename Encode>
Frame PredictionClient::round_trip(FrameType type, Encode&& encode,
                                   FrameType expected, const char* what) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.request_timeout));
  ensure_connected();
  send_all(encode_frame(type, encode()), deadline);
  Frame frame = read_frame(deadline);
  if (frame.type == expected) return frame;
  if (frame.type == FrameType::kError) {
    ++stats_.server_errors;
    const WireError error = decode_error(frame.payload);
    if (!error.retryable)
      throw RemoteError(std::string("net client: server rejected ") + what +
                        ": " + error.message);
    throw DataError("net client: server error: " + error.message);
  }
  if (frame.type == FrameType::kWrongShard) {
    ++stats_.wrong_shards;
    throw WrongShardError(decode_wrong_shard(frame.payload));
  }
  throw DataError("net client: unexpected frame type from server");
}

void PredictionClient::ensure_connected() {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  ++stats_.reconnects;

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &address.sin_addr) != 1)
    throw DataError("net client: invalid server address " + config_.host);

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.connect_timeout));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    if (errno != EINPROGRESS) throw_errno("connect");
    wait_io(/*for_write=*/true, deadline, "connect");
    int error = 0;
    socklen_t error_len = sizeof(error);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0 ||
        error != 0)
      throw DataError("net client: connect failed: " +
                      std::string(std::strerror(error ? error : errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void PredictionClient::send_all(std::span<const std::uint8_t> bytes,
                                Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(/*for_write=*/true, deadline, "send");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw_errno("send");
  }
}

Frame PredictionClient::read_frame(Clock::time_point deadline) {
  FrameDecoder decoder;
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    if (std::optional<Frame> frame = decoder.next()) return *frame;
    wait_io(/*for_write=*/false, deadline, "response");
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n == 0) throw DataError("net client: connection closed by server");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      throw_errno("read");
    }
    decoder.feed({buffer, static_cast<std::size_t>(n)});
  }
}

// ---------------------------------------------------------------------------
// ShardedPredictionClient

namespace {

/// Registry-owned counters for client-side ring routing (DESIGN.md §8
/// idiom; shared across sharded clients like the server's fleet series).
struct RingClientMetrics {
  Counter& hops;
  Counter& refreshes;
  Counter& sub_batches;

  static RingClientMetrics& get() {
    static RingClientMetrics metrics{
        MetricsRegistry::global().counter("registry.ring.hops.total"),
        MetricsRegistry::global().counter("registry.ring.refreshes.total"),
        MetricsRegistry::global().counter("registry.ring.sub_batches.total")};
    return metrics;
  }
};

}  // namespace

ShardedPredictionClient::ShardedPredictionClient(HashRing ring,
                                                 ShardedClientConfig config)
    : ring_(std::move(ring)), config_(std::move(config)) {
  FGCS_REQUIRE_MSG(!ring_.empty(), "sharded client needs a non-empty ring");
  FGCS_REQUIRE(config_.max_forward_hops >= 0);
}

PredictionClient& ShardedPredictionClient::client_for(
    const RingMember& member) {
  FGCS_REQUIRE_MSG(member.port != 0,
                   "ring member " + member.node_id + " has no endpoint");
  const std::string key = member.host + ":" + std::to_string(member.port);
  const auto it = clients_.find(key);
  if (it != clients_.end()) return *it->second;
  ClientConfig config = config_.base;
  config.host = member.host;
  config.port = member.port;
  return *clients_.emplace(key, std::make_unique<PredictionClient>(config))
              .first->second;
}

void ShardedPredictionClient::adopt_ring(HashRing ring) {
  FGCS_REQUIRE_MSG(!ring.empty(), "sharded client needs a non-empty ring");
  ring_ = std::move(ring);
  ++stats_.ring_refreshes;
  RingClientMetrics::get().refreshes.add();
}

Prediction ShardedPredictionClient::predict(const WireRequestItem& item) {
  return predict_batch({&item, 1}).front();
}

std::vector<Prediction> ShardedPredictionClient::predict_batch(
    std::span<const WireRequestItem> items) {
  ++stats_.batches;
  std::vector<Prediction> results(items.size());
  // Items not yet answered, in request order; shrinks as shards answer.
  std::vector<std::size_t> unresolved(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) unresolved[i] = i;

  int hops = 0;
  while (!unresolved.empty()) {
    // Partition the unresolved items by owner, preserving request order
    // within each shard; serve shards in ring-member (id) order so the wire
    // schedule is deterministic for a fixed ring.
    std::map<std::string, std::vector<std::size_t>> by_owner;
    for (const std::size_t index : unresolved) {
      const RingMember* owner = ring_.owner(items[index].machine_key);
      FGCS_REQUIRE_MSG(owner != nullptr, "sharded client ring is empty");
      by_owner[owner->node_id].push_back(index);
    }

    std::optional<HashRing> fresher;
    std::vector<std::size_t> still_unresolved;
    for (auto& [node_id, indices] : by_owner) {
      if (fresher.has_value()) {
        // A hop already invalidated this pass's partition; re-route the
        // rest against the fresher ring instead of asking a stale owner.
        still_unresolved.insert(still_unresolved.end(), indices.begin(),
                                indices.end());
        continue;
      }
      std::vector<WireRequestItem> sub_batch;
      sub_batch.reserve(indices.size());
      for (const std::size_t index : indices) sub_batch.push_back(items[index]);
      ++stats_.sub_batches;
      RingClientMetrics::get().sub_batches.add();
      try {
        const std::vector<Prediction> answered =
            client_for(*ring_.member(node_id)).predict_batch(sub_batch);
        for (std::size_t k = 0; k < indices.size(); ++k)
          results[indices[k]] = answered[k];
      } catch (const WrongShardError& error) {
        ++stats_.wrong_shard_hops;
        RingClientMetrics::get().hops.add();
        fresher = error.ring();
        still_unresolved.insert(still_unresolved.end(), indices.begin(),
                                indices.end());
      }
    }

    if (fresher.has_value()) {
      if (++hops > config_.max_forward_hops)
        throw DataError(
            "net client: wrong-shard forwarding exceeded " +
            std::to_string(config_.max_forward_hops) +
            " hops (rings keep changing under the call)");
      adopt_ring(std::move(*fresher));
    }
    // Keep request order stable across passes for deterministic replay.
    std::sort(still_unresolved.begin(), still_unresolved.end());
    unresolved = std::move(still_unresolved);
  }
  return results;
}

void PredictionClient::wait_io(bool for_write, Clock::time_point deadline,
                               const char* what) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = static_cast<short>(for_write ? POLLOUT : POLLIN);
  for (;;) {
    // Only the clock ends the wait: a poll() that returns 0 early (coarse
    // timer, clock skew between poll and steady_clock) just polls again.
    if (Clock::now() >= deadline)
      throw DataError(std::string("net client: timed out waiting for ") +
                      what);
    const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
    if (ready > 0) {
      if (pfd.revents & (POLLERR | POLLNVAL))
        throw DataError(std::string("net client: socket error during ") +
                        what);
      return;  // readable/writable (POLLHUP still lets read() see EOF)
    }
    if (ready < 0 && errno != EINTR) throw_errno("poll");
  }
}

}  // namespace fgcs::net
