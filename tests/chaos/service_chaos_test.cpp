// Chaos suite: the prediction service under forced cache invalidation,
// injected estimation failures, and latency injection. The load-bearing
// invariant is staleness: no matter how invalidation races with lookups, a
// served Prediction is always bit-identical to a fresh unbatched
// AvailabilityPredictor run on the same history.
#include "core/prediction_service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "chaos_support.hpp"
#include "core/predictor.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;
using test::steady_trace;

class ServiceChaosTest : public ChaosTest {};

PredictionRequest request_at(SimTime start_of_day, SimTime length,
                             std::int64_t target_day = 7) {
  return PredictionRequest{
      .target_day = target_day,
      .window = {.start_of_day = start_of_day, .length = length}};
}

/// Bitwise Prediction comparison — the service's hit-path contract is
/// bit-identity with the cold path, not approximate equality. Timing fields
/// are excluded: they record wall-clock cost, not the predicted value.
void expect_same_prediction(const Prediction& got, const Prediction& want) {
  EXPECT_EQ(std::memcmp(&got.temporal_reliability, &want.temporal_reliability,
                        sizeof(double)),
            0);
  EXPECT_EQ(got.initial_state, want.initial_state);
  EXPECT_EQ(std::memcmp(got.p_absorb.data(), want.p_absorb.data(),
                        sizeof(got.p_absorb)),
            0);
  EXPECT_EQ(got.training_days_used, want.training_days_used);
  EXPECT_EQ(got.steps, want.steps);
}

TEST_F(ServiceChaosTest, ForcedInvalidationNeverServesStale) {
  // Every 3rd lookup forcibly invalidates the machine's cache generation
  // right after the lookup is counted — a worst-case churn of the staleness
  // machinery. Each result must still equal the uncached predictor's.
  Failpoints::instance().arm_from_spec("service.cache.invalidate=every:3");
  const MachineTrace trace = test::flaky_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;

  for (int round = 0; round < 20; ++round) {
    const PredictionRequest request =
        request_at((9 + round % 4) * kSecondsPerHour, 2 * kSecondsPerHour);
    const Prediction got = service.predict(trace, request);
    const Prediction want = reference.predict(trace, request);
    expect_same_prediction(got, want);
  }
  const FailpointStats stats = Failpoints::instance().stats();
  const FailpointCounters* point = stats.find("service.cache.invalidate");
  ASSERT_NE(point, nullptr);
  EXPECT_GT(point->fires, 0u);
  EXPECT_GT(service.stats().invalidations, 0u);
}

TEST_F(ServiceChaosTest, ConcurrentPredictsUnderInvalidationStayCorrect) {
  // Hammer one machine from several threads while injected invalidations
  // keep wiping its generation mid-flight. Entries may be dropped and
  // re-estimated, but a wrong (stale) answer is never acceptable.
  Failpoints::instance().arm_from_spec("service.cache.invalidate=every:5");
  const MachineTrace trace = test::flaky_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;

  constexpr int kWindows = 4;
  std::array<Prediction, kWindows> want;
  for (int w = 0; w < kWindows; ++w)
    want[static_cast<std::size_t>(w)] =
        reference.predict(trace, request_at((9 + w) * kSecondsPerHour,
                                            2 * kSecondsPerHour));

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  std::array<std::atomic<int>, kThreads> mismatches{};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int w = (t + round) % kWindows;
        const Prediction got = service.predict(
            trace, request_at((9 + w) * kSecondsPerHour, 2 * kSecondsPerHour));
        if (std::memcmp(&got.temporal_reliability,
                        &want[static_cast<std::size_t>(w)]
                             .temporal_reliability,
                        sizeof(double)) != 0)
          mismatches[static_cast<std::size_t>(t)].fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)].load(), 0) << t;
  EXPECT_GT(Failpoints::instance().stats().find("service.cache.invalidate")
                ->fires,
            0u);
}

TEST_F(ServiceChaosTest, InjectedEstimationFailureThrowsThenRecovers) {
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const MachineTrace trace = steady_trace("m0", 8);
  PredictionService service;
  const PredictionRequest request =
      request_at(9 * kSecondsPerHour, kSecondsPerHour);

  EXPECT_THROW(service.predict(trace, request), DataError);
  // The failure consumed the `once` trigger; the service is healthy again
  // and agrees with the uncached predictor.
  const Prediction got = service.predict(trace, request);
  expect_same_prediction(got,
                         AvailabilityPredictor().predict(trace, request));
}

TEST_F(ServiceChaosTest, BatchSurfacesInjectedFailureAsDataError) {
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const MachineTrace a = steady_trace("a", 8);
  const MachineTrace b = steady_trace("b", 8);
  PredictionService service;
  const std::vector<BatchRequest> batch{
      {.trace = &a, .request = request_at(9 * kSecondsPerHour, 600)},
      {.trace = &b, .request = request_at(9 * kSecondsPerHour, 600)}};
  EXPECT_THROW(service.predict_batch(batch), DataError);
  // A later batch succeeds once the trigger is spent.
  EXPECT_EQ(service.predict_batch(batch).size(), 2u);
}

TEST_F(ServiceChaosTest, LatencyInjectionDelaysButDoesNotCorrupt) {
  // 1 ms injected stall on every 2nd lookup: results must be unchanged.
  Failpoints::instance().arm_from_spec(
      "service.estimate.slow=every:2,latency=0.001");
  const MachineTrace trace = steady_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;
  const PredictionRequest request =
      request_at(9 * kSecondsPerHour, kSecondsPerHour);

  for (int i = 0; i < 4; ++i)
    expect_same_prediction(service.predict(trace, request),
                           reference.predict(trace, request));
  EXPECT_EQ(
      Failpoints::instance().stats().find("service.estimate.slow")->fires, 2u);
}

}  // namespace
}  // namespace fgcs
