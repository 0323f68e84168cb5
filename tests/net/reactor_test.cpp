// Reactor invariants (src/net/server.{hpp,cpp}):
//
//  - A connection that pipelines requests gets its responses strictly in
//    request order, each bit-identical to the in-process predictor (the
//    per-connection busy/pending queue).
//
// Plus the MpscQueue primitive pool workers hand completions back through.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/mpsc_queue.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs::net {
namespace {

std::vector<MachineTrace> small_fleet(std::size_t count = 2) {
  WorkloadParams params;
  params.sampling_period = 60;
  return generate_fleet(params, /*seed=*/424242, count, /*days=*/10,
                        "reactor");
}

WireRequestItem item_for(const MachineTrace& trace, SimTime start_hour) {
  return WireRequestItem{
      .machine_key = trace.machine_id(),
      .request = {.target_day = trace.day_count(),
                  .window = {.start_of_day = start_hour * kSecondsPerHour,
                             .length = 2 * kSecondsPerHour}}};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// MpscQueue

struct TestNode {
  TestNode* next = nullptr;
  int producer = 0;
  int sequence = 0;
};

TEST(MpscQueue, SingleProducerDrainsInFifoOrder) {
  MpscQueue<TestNode> queue;
  EXPECT_TRUE(queue.empty());
  for (int i = 0; i < 5; ++i)
    queue.push(new TestNode{.producer = 0, .sequence = i});
  EXPECT_FALSE(queue.empty());
  int expected = 0;
  for (TestNode* node = queue.take_all(); node != nullptr;) {
    TestNode* next = node->next;
    EXPECT_EQ(node->sequence, expected++);
    delete node;
    node = next;
  }
  EXPECT_EQ(expected, 5);
  EXPECT_TRUE(queue.empty());
}

TEST(MpscQueue, FirstPushIntoEmptyQueueReportsIt) {
  MpscQueue<TestNode> queue;
  auto* first = new TestNode;
  auto* second = new TestNode;
  EXPECT_TRUE(queue.push(first));    // empty → non-empty: wake the consumer
  EXPECT_FALSE(queue.push(second));  // already non-empty
  for (TestNode* node = queue.take_all(); node != nullptr;) {
    TestNode* next = node->next;
    delete node;
    node = next;
  }
}

TEST(MpscQueue, ConcurrentProducersLoseNothingAndKeepPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MpscQueue<TestNode> queue;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i)
        queue.push(new TestNode{.producer = p, .sequence = i});
    });

  // Drain concurrently with production (the real reactor does), then once
  // more after the joins to catch stragglers.
  int total = 0;
  std::vector<int> last_seen(kProducers, -1);
  const auto drain = [&] {
    for (TestNode* node = queue.take_all(); node != nullptr;) {
      TestNode* next = node->next;
      // FIFO of push linearization: each producer's own sequence must
      // arrive strictly increasing even when producers interleave.
      EXPECT_GT(node->sequence, last_seen[node->producer]);
      last_seen[node->producer] = node->sequence;
      ++total;
      delete node;
      node = next;
    }
  };
  while (total < kProducers * kPerProducer / 2) drain();
  for (std::thread& producer : producers) producer.join();
  drain();
  EXPECT_EQ(total, kProducers * kPerProducer);
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Reactor

TEST(Reactor, PipelinedRequestsAnswerInRequestOrder) {
  const std::vector<MachineTrace> fleet = small_fleet();
  PredictionServer server(ServerConfig{},
                          std::make_shared<PredictionService>());
  for (const MachineTrace& trace : fleet) server.add_trace(trace);
  server.start();

  // Raw blocking socket: write three request frames back to back without
  // reading, then collect three responses. The async dispatch path must
  // answer them strictly in request order (busy flag + pending queue).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);

  // Distinguishable batches: sizes 1, 2, 3.
  std::vector<std::vector<WireRequestItem>> batches;
  batches.push_back({item_for(fleet[0], 9)});
  batches.push_back({item_for(fleet[1], 9), item_for(fleet[0], 14)});
  batches.push_back(
      {item_for(fleet[1], 14), item_for(fleet[0], 11), item_for(fleet[1], 11)});
  std::vector<std::uint8_t> wire;
  for (const std::vector<WireRequestItem>& batch : batches) {
    const std::vector<std::uint8_t> frame =
        encode_frame(FrameType::kRequest, encode_request(batch));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  const AvailabilityPredictor reference;
  FrameDecoder decoder;
  std::size_t answered = 0;
  std::uint8_t buffer[4096];
  while (answered < batches.size()) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    ASSERT_GT(n, 0) << "server closed early";
    decoder.feed({buffer, static_cast<std::size_t>(n)});
    while (std::optional<Frame> frame = decoder.next()) {
      ASSERT_EQ(frame->type, FrameType::kResponse);
      const std::vector<Prediction> served = decode_response(frame->payload);
      // Response k must carry batch k's size and batch k's bits.
      ASSERT_EQ(served.size(), batches[answered].size())
          << "response " << answered << " out of order";
      for (std::size_t i = 0; i < served.size(); ++i) {
        const WireRequestItem& item = batches[answered][i];
        const MachineTrace& trace = item.machine_key == fleet[0].machine_id()
                                        ? fleet[0]
                                        : fleet[1];
        const Prediction expected = reference.predict(trace, item.request);
        EXPECT_TRUE(same_bits(served[i].temporal_reliability,
                              expected.temporal_reliability))
            << "response " << answered << " item " << i;
      }
      ++answered;
    }
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().requests, batches.size());
  EXPECT_EQ(server.stats().responses, batches.size());
}

}  // namespace
}  // namespace fgcs::net
