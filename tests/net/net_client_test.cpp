// PredictionClient failure handling against a scripted fake server: connect
// refusal, request timeouts, error frames, malformed responses — each must
// surface as a retried attempt and, after max_attempts, one DataError that
// names the last failure. Backoff pacing uses the scheduler helper with
// SchedulerConfig milliseconds (verified by wall clock with jitter off).
#include "net/client.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "util/error.hpp"

namespace fgcs::net {
namespace {

/// A loopback listener running one scripted action per accepted connection.
/// Action k runs for connection k (the last action repeats for overflow).
class FakeServer {
 public:
  /// The action receives the connected (blocking) fd and must not close it.
  using Action = std::function<void(int fd)>;

  explicit FakeServer(std::vector<Action> actions)
      : actions_(std::move(actions)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
                     sizeof(address)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t length = sizeof(address);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakeServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  std::uint16_t port() const { return port_; }
  int connections() const { return connections_; }

 private:
  void serve() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listener closed: test over
      const std::size_t index = std::min<std::size_t>(
          static_cast<std::size_t>(connections_), actions_.size() - 1);
      ++connections_;
      actions_[index](fd);
      ::close(fd);
    }
  }

  std::vector<Action> actions_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  int connections_ = 0;
};

WireRequestItem any_item() {
  return WireRequestItem{
      .machine_key = "m0",
      .request = {.target_day = 8,
                  .window = {.start_of_day = 9 * 3600, .length = 3600}}};
}

/// Reads one full frame off a blocking fd.
Frame read_frame_blocking(int fd) {
  FrameDecoder decoder;
  std::uint8_t buffer[4096];
  for (;;) {
    if (std::optional<Frame> frame = decoder.next()) return *frame;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) throw DataError("fake server: peer went away");
    decoder.feed({buffer, static_cast<std::size_t>(n)});
  }
}

void send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

ClientConfig quick_config(std::uint16_t port, int attempts) {
  ClientConfig config;
  config.port = port;
  config.max_attempts = attempts;
  config.connect_timeout = 2.0;
  config.request_timeout = 2.0;
  config.backoff.retry_delay = 1;       // ms — fast tests
  config.backoff.backoff_factor = 1.0;  // exact, jitter-free delays
  return config;
}

TEST(NetClient, RefusedConnectionFailsAfterMaxAttempts) {
  // Grab a port that refuses connections: bind, learn the number, close.
  std::uint16_t dead_port = 0;
  {
    FakeServer probe({[](int) {}});
    dead_port = probe.port();
  }
  PredictionClient client(quick_config(dead_port, 3));
  const WireRequestItem item = any_item();
  EXPECT_THROW(client.predict_batch({&item, 1}), DataError);
  EXPECT_EQ(client.stats().batches, 1u);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_FALSE(client.connected());
}

TEST(NetClient, RetryableServerErrorFrameIsRetriedThenSucceeds) {
  const auto answer_error = [](int fd) {
    read_frame_blocking(fd);
    send_bytes(fd,
               encode_frame(FrameType::kError,
                            encode_error("transient: try again", true)));
  };
  const auto answer_ok = [](int fd) {
    const Frame request = read_frame_blocking(fd);
    const std::size_t count = decode_request(request.payload).size();
    std::vector<Prediction> results(count);
    results[0].temporal_reliability = 0.625;
    send_bytes(fd, encode_frame(FrameType::kResponse,
                                encode_response(results)));
  };
  FakeServer server({answer_error, answer_error, answer_ok});
  PredictionClient client(quick_config(server.port(), 5));

  const Prediction result = client.predict(any_item());
  EXPECT_EQ(result.temporal_reliability, 0.625);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().server_errors, 2u);
  EXPECT_EQ(client.stats().reconnects, 3u);  // error frames close the socket
}

TEST(NetClient, NonRetryableServerErrorFailsFastWithoutBackoff) {
  // retryable=0 says "these bytes will be rejected identically every time":
  // one attempt, RemoteError, no retry budget or backoff spent.
  const auto reject = [](int fd) {
    read_frame_blocking(fd);
    send_bytes(fd, encode_frame(FrameType::kError,
                                encode_error("unknown machine key", false)));
  };
  FakeServer server({reject});
  ClientConfig config = quick_config(server.port(), 5);
  config.backoff.retry_delay = 60'000;  // a retry would blow the clock below
  PredictionClient client(config);

  const auto start = std::chrono::steady_clock::now();
  const WireRequestItem item = any_item();
  try {
    client.predict_batch({&item, 1});
    FAIL() << "non-retryable rejection was swallowed";
  } catch (const RemoteError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown machine key"),
              std::string::npos)
        << error.what();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().server_errors, 1u);
  EXPECT_LT(elapsed, 5.0);  // no 60 s backoff was paid
  EXPECT_FALSE(client.connected());
}

TEST(NetClient, SilentServerTriggersRequestTimeout) {
  const auto black_hole = [](int fd) {
    read_frame_blocking(fd);
    // Never answer; hold the connection until the client gives up.
    char sink;
    (void)!::read(fd, &sink, 1);
  };
  FakeServer server({black_hole});
  ClientConfig config = quick_config(server.port(), 2);
  config.request_timeout = 0.2;
  PredictionClient client(config);

  const auto start = std::chrono::steady_clock::now();
  const WireRequestItem item = any_item();
  EXPECT_THROW(client.predict_batch({&item, 1}), DataError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_GE(elapsed, 0.4);  // two full request timeouts were honoured
  EXPECT_LT(elapsed, 2.0);
}

// A wait that rounds the remaining time down can wake a fraction of a
// millisecond before the deadline and give up there; repeat a short timeout
// so that early exit, when present, shows up on some attempt.
TEST(NetClient, EveryShortTimeoutAttemptWaitsItsFullTimeout) {
  const auto black_hole = [](int fd) {
    read_frame_blocking(fd);
    char sink;
    (void)!::read(fd, &sink, 1);
  };
  FakeServer server({black_hole});
  ClientConfig config = quick_config(server.port(), 1);
  config.request_timeout = 0.015;
  const WireRequestItem item = any_item();
  for (int attempt = 0; attempt < 20; ++attempt) {
    PredictionClient client(config);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(client.predict_batch({&item, 1}), DataError);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, std::chrono::milliseconds(15)) << "attempt " << attempt;
  }
}

TEST(NetClient, ResponseCountMismatchIsAProtocolErrorAndRetried) {
  const auto wrong_count = [](int fd) {
    read_frame_blocking(fd);
    send_bytes(fd, encode_frame(FrameType::kResponse,
                                encode_response(std::vector<Prediction>(3))));
  };
  FakeServer server({wrong_count, wrong_count});
  PredictionClient client(quick_config(server.port(), 2));
  const WireRequestItem item = any_item();  // batch of 1, response of 3
  try {
    client.predict_batch({&item, 1});
    FAIL() << "count mismatch accepted";
  } catch (const DataError& error) {
    EXPECT_NE(std::string(error.what()).find("3 predictions"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(client.stats().attempts, 2u);
}

TEST(NetClient, GarbageFromServerDesyncsAndRetries) {
  const auto garbage = [](int fd) {
    read_frame_blocking(fd);
    send_bytes(fd, std::vector<std::uint8_t>(64, 0x5a));
  };
  FakeServer server({garbage, garbage, garbage});
  PredictionClient client(quick_config(server.port(), 3));
  const WireRequestItem item = any_item();
  EXPECT_THROW(client.predict_batch({&item, 1}), DataError);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(server.connections(), 3);
}

TEST(NetClient, BackoffPacesRetriesInMilliseconds) {
  // backoff_factor 1.0 short-circuits jitter: every pause is exactly
  // retry_delay, read as milliseconds. Three attempts → two 60 ms pauses.
  std::uint16_t dead_port = 0;
  {
    FakeServer probe({[](int) {}});
    dead_port = probe.port();
  }
  ClientConfig config = quick_config(dead_port, 3);
  config.backoff.retry_delay = 60;
  PredictionClient client(config);

  const auto start = std::chrono::steady_clock::now();
  const WireRequestItem item = any_item();
  EXPECT_THROW(client.predict_batch({&item, 1}), DataError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.12);  // ≥ 2 × 60 ms — delays are ms, not seconds
  EXPECT_LT(elapsed, 5.0);   // …and certainly not SimTime seconds
}

TEST(NetClient, LastFailureIsNamedInTheFinalError) {
  std::uint16_t dead_port = 0;
  {
    FakeServer probe({[](int) {}});
    dead_port = probe.port();
  }
  PredictionClient client(quick_config(dead_port, 2));
  const WireRequestItem item = any_item();
  try {
    client.predict_batch({&item, 1});
    FAIL() << "refused connection accepted";
  } catch (const DataError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("after 2 attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("last:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fgcs::net
