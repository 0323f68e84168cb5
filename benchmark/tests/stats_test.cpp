// The order statistics and span arithmetic every benchmark number rests on.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace fgcs::benchmark {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = one_to(1000);
  EXPECT_EQ(percentile(values, 500), 500.0);
  EXPECT_EQ(percentile(values, 990), 990.0);
  EXPECT_EQ(percentile(values, 999), 999.0);
  EXPECT_EQ(percentile(one_to(1), 990), 1.0);
  EXPECT_EQ(percentile(std::vector<double>{}, 500), 0.0);
  // ceil(0.95 · 101) = 96 without floating-point rounding.
  EXPECT_EQ(percentile(one_to(101), 950), 96.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);
  EXPECT_EQ(samples_beyond(200, 950), 10u);
  EXPECT_EQ(samples_beyond(0, 500), 0u);
  // p99 of 1000 samples has ten beyond it: one slice, no more.
  EXPECT_EQ(supported_slices(1000, 990, 20), 1u);
  EXPECT_EQ(supported_slices(1999, 990, 20), 1u);
  EXPECT_EQ(supported_slices(2000, 990, 20), 2u);
  // An unsupported percentile still gets one slice: the whole phase.
  EXPECT_EQ(supported_slices(50, 990, 20), 1u);
  EXPECT_EQ(supported_slices(0, 500, 20), 1u);
  EXPECT_EQ(supported_slices(100000, 500, 20), 20u);
  EXPECT_EQ(supported_slices(460, 500, 20), 20u);
  EXPECT_EQ(supported_slices(460, 950, 20), 2u);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles ten = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles odd = quartiles({7, 1, 3, 5, 9});
  EXPECT_DOUBLE_EQ(odd.q1, 2.0);
  EXPECT_DOUBLE_EQ(odd.median, 5.0);
  EXPECT_DOUBLE_EQ(odd.q3, 8.0);
  // The exclusive method extrapolates past the data for tiny samples.
  const Quartiles two = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, NoChildren) { EXPECT_EQ(self_time({10, 30}, {}), 20.0); }

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [12,18] and [15,22] cover [12,22]: 10 of the parent's 20.
  EXPECT_EQ(self_time({10, 30}, {{15, 22}, {12, 18}}), 10.0);
  // A child nested in another adds nothing.
  EXPECT_EQ(self_time({0, 10}, {{1, 9}, {2, 3}}), 2.0);
}

TEST(SelfTime, ChildrenClippedToTheParent) {
  EXPECT_EQ(self_time({10, 20}, {{5, 12}, {18, 25}}), 6.0);
  EXPECT_EQ(self_time({10, 20}, {{30, 40}, {0, 5}}), 10.0);
}

TEST(SelfTime, ByNameFromRecordedSpans) {
  SpanRecorder recorder;
  const Clock::time_point t = Clock::now();
  const auto at = [t](int us) { return t + std::chrono::microseconds(us); };
  const std::uint64_t root = recorder.open();
  recorder.leaf("child", root, root, at(10), at(40));
  recorder.leaf("child", root, root, at(30), at(60));
  recorder.record(root, "op", 0, root, at(0), at(100));
  const auto self = self_times_us(recorder.spans());
  ASSERT_EQ(self.at("op").size(), 1u);
  EXPECT_NEAR(self.at("op")[0], 50.0, 1e-6);
  ASSERT_EQ(self.at("child").size(), 2u);
  EXPECT_NEAR(self.at("child")[0] + self.at("child")[1], 60.0, 1e-6);
}

}  // namespace
}  // namespace fgcs::benchmark
