// TraceStore: the ingest path's day-boundary rollup. Pins the append
// contract (idempotent duplicates, gap rejection, spec pinning), the
// copy-on-rollup snapshot semantics, retention-based retirement, trace
// adoption, day-close bookkeeping order, the loader (one load per key, the
// key as machine id, LRU eviction of never-appended loads, no append lost
// to an eviction), and crash-consistency under the ingest.rollup.fail
// failpoint (a failed close must leave the machine retryable, not wedged).
#include "trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

constexpr SimTime kPeriod = 3600;  // 24 samples/day keeps the tests tiny

MachineSpec spec(const std::string& id = "m0") {
  return MachineSpec{.machine_id = id,
                     .epoch_day_of_week = 2,
                     .sampling_period = kPeriod,
                     .total_mem_mb = 512};
}

std::vector<ResourceSample> day_of(int load_pct) {
  return constant_day(kPeriod, load_pct);
}

TEST(TraceStoreTest, AppendsBufferUntilTheDayBoundary) {
  TraceStore store;
  const std::vector<ResourceSample> day = day_of(10);
  const AppendResult partial =
      store.append(spec(), 0, std::span(day).subspan(0, 10));
  EXPECT_EQ(partial.accepted, 10u);
  EXPECT_EQ(partial.days_closed, 0u);
  EXPECT_EQ(partial.next_index, 10u);
  EXPECT_EQ(store.buffered_samples("m0"), 10u);
  EXPECT_EQ(store.snapshot("m0")->day_count(), 0);

  const AppendResult rest = store.append(spec(), 10, std::span(day).subspan(10));
  EXPECT_EQ(rest.accepted, day.size() - 10);
  EXPECT_EQ(rest.days_closed, 1u);
  EXPECT_EQ(rest.days_retired, 0u);
  EXPECT_EQ(store.buffered_samples("m0"), 0u);
  const std::shared_ptr<const MachineTrace> snap = store.snapshot("m0");
  ASSERT_EQ(snap->day_count(), 1);
  EXPECT_EQ(snap->machine_id(), "m0");
  EXPECT_EQ(snap->calendar().epoch_day_of_week(), 2);
  EXPECT_EQ(snap->sampling_period(), kPeriod);
  for (std::size_t i = 0; i < day.size(); ++i)
    EXPECT_TRUE(snap->at(0, i) == day[i]);
}

TEST(TraceStoreTest, OneAppendCanCloseSeveralDays) {
  TraceStore store;
  std::vector<ResourceSample> batch;
  for (const int load : {5, 50, 95})
    for (const ResourceSample& s : day_of(load)) batch.push_back(s);
  batch.push_back(sample(10));  // and start day 3
  const AppendResult result = store.append(spec(), 0, batch);
  EXPECT_EQ(result.days_closed, 3u);
  EXPECT_EQ(result.next_index, batch.size());
  EXPECT_EQ(store.snapshot("m0")->day_count(), 3);
  EXPECT_EQ(store.buffered_samples("m0"), 1u);
}

TEST(TraceStoreTest, OverlappingRetransmissionIsDeduplicated) {
  TraceStore store;
  const std::vector<ResourceSample> day = day_of(10);
  store.append(spec(), 0, day);
  // Full retransmission plus 4 new samples: the old 24 dedup exactly.
  std::vector<ResourceSample> retry = day;
  for (int i = 0; i < 4; ++i) retry.push_back(sample(60));
  const AppendResult result = store.append(spec(), 0, retry);
  EXPECT_EQ(result.duplicates, day.size());
  EXPECT_EQ(result.accepted, 4u);
  EXPECT_EQ(result.days_closed, 0u);
  EXPECT_EQ(result.next_index, day.size() + 4);
  // The duplicate region is *not* compared byte-for-byte — the index alone
  // names the sample — but the stored day must still be the original.
  EXPECT_TRUE(store.snapshot("m0")->at(0, 0) == day[0]);
}

TEST(TraceStoreTest, GapsAreUnrepresentableAndRejected) {
  TraceStore store;
  const std::vector<ResourceSample> day = day_of(10);
  store.append(spec(), 0, std::span(day).subspan(0, 5));
  EXPECT_THROW(store.append(spec(), 6, std::span(day).subspan(6)), DataError);
  // State unchanged: index 5 is still the frontier.
  EXPECT_EQ(store.next_index("m0"), 5u);
}

TEST(TraceStoreTest, SpecIsPinnedAtFirstSight) {
  TraceStore store;
  store.append(spec(), 0, std::vector<ResourceSample>{sample(10)});
  MachineSpec changed = spec();
  changed.sampling_period = 60;
  EXPECT_THROW(store.append(changed, 1, std::vector<ResourceSample>{sample(10)}),
               DataError);
  MachineSpec moved = spec();
  moved.epoch_day_of_week = 5;
  EXPECT_THROW(store.append(moved, 1, std::vector<ResourceSample>{sample(10)}),
               DataError);
}

TEST(TraceStoreTest, InvalidSpecsAreRejected) {
  TraceStore store;
  const std::vector<ResourceSample> one{sample(10)};
  MachineSpec bad = spec("");
  EXPECT_THROW(store.append(bad, 0, one), DataError);
  bad = spec();
  bad.sampling_period = 7;  // does not divide 86400
  EXPECT_THROW(store.append(bad, 0, one), DataError);
  bad = spec();
  bad.epoch_day_of_week = 9;
  EXPECT_THROW(store.append(bad, 0, one), DataError);
  EXPECT_EQ(store.machine_count(), 0u);
}

TEST(TraceStoreTest, RetentionRetiresTheOldestDay) {
  TraceStore store(TraceStoreConfig{.retention_days = 2}, nullptr);
  std::vector<ResourceSample> batch;
  for (const int load : {5, 50, 95, 20})
    for (const ResourceSample& s : day_of(load)) batch.push_back(s);
  const AppendResult result = store.append(spec(), 0, batch);
  EXPECT_EQ(result.days_closed, 4u);
  EXPECT_EQ(result.days_retired, 2u);  // days 0 and 1 slid out
  const std::shared_ptr<const MachineTrace> snap = store.snapshot("m0");
  ASSERT_EQ(snap->day_count(), 2);
  EXPECT_EQ(store.first_day_id("m0"), 2);
  // Absolute indexing survives retirement: next_index counts ALL samples.
  EXPECT_EQ(store.next_index("m0"), batch.size());
  // The slice kept calendar alignment: day 0 of the snapshot is absolute
  // day 2 (epoch dow 2 + 2 = Friday, still a weekday).
  EXPECT_EQ(snap->calendar().epoch_day_of_week(), 4);
  EXPECT_EQ(snap->at(0, 0).host_load_pct, 95);
}

TEST(TraceStoreTest, SnapshotsAreImmutableUnderLaterAppends) {
  TraceStore store;
  store.append(spec(), 0, day_of(10));
  const std::shared_ptr<const MachineTrace> before = store.snapshot("m0");
  store.append(spec(), 24, day_of(90));
  EXPECT_EQ(before->day_count(), 1);  // old snapshot untouched
  EXPECT_EQ(store.snapshot("m0")->day_count(), 2);
  EXPECT_NE(before.get(), store.snapshot("m0").get());
}

TEST(TraceStoreTest, DayClosedEventsCarryOrderedBookkeeping) {
  std::vector<std::string> events;
  TraceStore store(TraceStoreConfig{.retention_days = 2},
                   [&](const std::string& machine_id) {
                     events.push_back(machine_id);
                   });
  struct Seen {
    std::uint64_t closed, retired;
    std::int64_t first, day_count;
  };
  std::vector<Seen> seen;
  std::uint64_t index = 0;
  for (const int load : {5, 50, 95}) {
    const AppendResult result = store.append(spec(), index, day_of(load));
    index = result.next_index;
    seen.push_back({result.days_closed, result.days_retired,
                    store.first_day_id("m0"),
                    store.snapshot("m0")->day_count()});
  }
  // One callback per closed day, naming the machine.
  EXPECT_EQ(events, std::vector<std::string>(3, "m0"));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].closed, 1u);
  EXPECT_EQ(seen[0].retired, 0u);
  EXPECT_EQ(seen[0].first, 0);
  EXPECT_EQ(seen[0].day_count, 1);
  EXPECT_EQ(seen[1].closed, 1u);
  EXPECT_EQ(seen[1].retired, 0u);
  EXPECT_EQ(seen[1].day_count, 2);
  // Third close hits retention: day 0 retires in the same append.
  EXPECT_EQ(seen[2].closed, 1u);
  EXPECT_EQ(seen[2].retired, 1u);
  EXPECT_EQ(seen[2].first, 1);
  EXPECT_EQ(seen[2].day_count, 2);
}

TEST(TraceStoreTest, FirstCloseShrinksALongerAdoptedHistoryToTheBudget) {
  // A 20-day history under a 14-day budget: the first close retires every
  // day beyond the budget, not just one.
  int events = 0;
  TraceStore store(TraceStoreConfig{.retention_days = 14},
                   [&](const std::string&) { ++events; });
  MachineTrace trace("m0", Calendar(2), kPeriod, 512);
  for (int d = 0; d < 20; ++d) trace.append_day(day_of(d));
  store.adopt_trace(trace);
  const AppendResult result = store.append(spec(), 20 * 24, day_of(99));
  EXPECT_EQ(result.days_closed, 1u);
  EXPECT_EQ(result.days_retired, 7u);  // days 0..6
  EXPECT_EQ(events, 1);
  const std::shared_ptr<const MachineTrace> snap = store.snapshot("m0");
  ASSERT_EQ(snap->day_count(), 14);
  EXPECT_EQ(store.first_day_id("m0"), 7);
  EXPECT_EQ(snap->at(0, 0).host_load_pct, 7);
  EXPECT_EQ(snap->at(13, 0).host_load_pct, 99);
  EXPECT_EQ(store.next_index("m0"), 21u * 24u);
  // The next close is back to one in, one out.
  EXPECT_EQ(store.append(spec(), 21 * 24, day_of(98)).days_retired, 1u);
  EXPECT_EQ(store.first_day_id("m0"), 8);
}

TEST(TraceStoreTest, AdoptedTraceContinuesSeamlessly) {
  TraceStore store;
  MachineTrace trace("adopted", Calendar(2), kPeriod, 512);
  trace.append_day(day_of(10));
  trace.append_day(day_of(20));
  store.adopt_trace(trace);
  EXPECT_THROW(store.adopt_trace(trace), DataError);  // already present
  EXPECT_EQ(store.next_index("adopted"), 48u);
  // Appends resume at the adopted end, with the spec derived from the trace.
  const AppendResult result = store.append(
      MachineSpec{.machine_id = "adopted",
                  .epoch_day_of_week = 2,
                  .sampling_period = kPeriod,
                  .total_mem_mb = 512},
      48, day_of(30));
  EXPECT_EQ(result.days_closed, 1u);
  EXPECT_EQ(store.snapshot("adopted")->day_count(), 3);
}

TEST(TraceStoreTest, UnknownMachinesReadAsAbsent) {
  TraceStore store;
  EXPECT_EQ(store.snapshot("ghost"), nullptr);
  EXPECT_THROW(store.next_index("ghost"), DataError);
  EXPECT_THROW(store.first_day_id("ghost"), DataError);
  EXPECT_THROW(store.buffered_samples("ghost"), DataError);
  EXPECT_EQ(store.machine_count(), 0u);
}

// ---- the loader: machines the store was never told about ----

/// A loader serving `days` constant days for every key but "missing",
/// counting its calls.
TraceStore::Loader counting_loader(std::atomic<int>& calls, int days = 1) {
  return [&calls, days](const std::string& id) {
    ++calls;
    if (id == "missing") throw DataError("no trace for " + id);
    return test::constant_trace(days, 10, kPeriod, 512, /*epoch_dow=*/2);
  };
}

TEST(TraceStoreTest, LoadTakesTheKeyAsMachineId) {
  std::atomic<int> calls{0};
  TraceStore store({}, {}, counting_loader(calls, 2));
  const std::shared_ptr<const MachineTrace> loaded = store.load("dir/key");
  EXPECT_EQ(loaded->machine_id(), "dir/key");  // not the file's "test"
  EXPECT_EQ(loaded->day_count(), 2);
  EXPECT_EQ(store.load("dir/key"), loaded);  // held: no second load
  EXPECT_EQ(store.snapshot("dir/key"), loaded);
  EXPECT_EQ(store.next_index("dir/key"), 48u);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(store.loads(), 1u);
}

TEST(TraceStoreTest, UnloadableKeysThrowAndLoadAgainNextTime) {
  std::atomic<int> calls{0};
  TraceStore store({}, {}, counting_loader(calls));
  EXPECT_THROW(store.load("missing"), DataError);
  EXPECT_THROW(store.load("missing"), DataError);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(store.machine_count(), 0u);
  EXPECT_EQ(store.snapshot("missing"), nullptr);
  EXPECT_EQ(store.loads(), 0u);
  EXPECT_THROW(TraceStore().load("m0"), DataError);  // no loader at all
}

TEST(TraceStoreTest, AppendsContinueALoadableHistory) {
  std::atomic<int> calls{0};
  TraceStore store({}, {}, counting_loader(calls, 2));
  // A key the loader knows: the append continues its two days.
  const AppendResult result = store.append(spec("file"), 48, day_of(30));
  EXPECT_EQ(result.accepted, 24u);
  EXPECT_EQ(result.days_closed, 1u);
  const std::shared_ptr<const MachineTrace> snap = store.snapshot("file");
  ASSERT_EQ(snap->day_count(), 3);
  EXPECT_EQ(snap->at(0, 0).host_load_pct, 10);
  EXPECT_EQ(snap->at(2, 0).host_load_pct, 30);
  // The loaded spec is pinned like a registered one.
  MachineSpec moved = spec("file");
  moved.total_mem_mb = 1024;
  EXPECT_THROW(store.append(moved, 72, day_of(30)), DataError);
  // A key it does not know registers an empty machine.
  EXPECT_EQ(store.append(spec("missing"), 0, day_of(40)).days_closed, 1u);
  EXPECT_EQ(store.snapshot("missing")->day_count(), 1);
  EXPECT_EQ(store.loads(), 1u);
}

TEST(TraceStoreTest, LeastRecentlyReadLoadedMachineIsEvicted) {
  std::atomic<int> calls{0};
  TraceStore store(TraceStoreConfig{.max_loaded = 2}, {},
                   counting_loader(calls));
  store.adopt_trace(test::constant_trace(1, 10, kPeriod, 512, 2));
  store.load("a");
  store.load("b");
  store.append(spec("b"), 24, day_of(20));  // promoted: never evicted
  const std::shared_ptr<const MachineTrace> pinned = store.load("c");
  store.load("a");  // c is now the least recently read
  store.load("d");
  EXPECT_EQ(store.snapshot("c"), nullptr);
  EXPECT_EQ(pinned->day_count(), 1);  // a reader's pin outlives eviction
  for (const char* held : {"test", "a", "b", "d"})
    EXPECT_NE(store.snapshot(held), nullptr) << held;
  ASSERT_NE(store.snapshot("b"), nullptr);
  EXPECT_EQ(store.snapshot("b")->day_count(), 2);
  EXPECT_EQ(store.machine_count(), 4u);
  EXPECT_EQ(store.load("c")->day_count(), 1);  // reloads
  EXPECT_EQ(store.loads(), 5u);
}

TEST(TraceStoreTest, ConcurrentMissesOfOneKeyLoadItOnce) {
  std::atomic<int> calls{0};
  TraceStore store({}, {}, [&calls](const std::string&) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return test::constant_trace(1, 10, kPeriod, 512, 2);
  });
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const MachineTrace>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { seen[t] = store.load("k"); });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(calls.load(), 1);
  for (const std::shared_ptr<const MachineTrace>& trace : seen)
    EXPECT_EQ(trace, seen.front());
}

TEST(TraceStoreTest, ConcurrentAppendsNeverLandOnAnEvictedMachine) {
  // Cap 1 and readers churning every key: each load evicts the last one,
  // so a key is often held as an evictable load when its first append
  // arrives. An append that raced an eviction and landed on the evicted
  // copy loses its day: the key reloads the loader's single day, and the
  // next append finds a gap. The race needs that coincidence, so every
  // round starts a fresh store.
  constexpr int kRounds = 20;
  constexpr int kDays = 3;
  std::vector<std::string> keys;
  for (int k = 0; k < 16; ++k) keys.push_back("w" + std::to_string(k));
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::atomic<int> calls{0};
    TraceStore store(TraceStoreConfig{.max_loaded = 1}, {},
                     counting_loader(calls));
    std::atomic<bool> done{false};
    std::atomic<int> reads{0};
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < 2; ++r)
      readers.emplace_back([&, r] {
        for (std::size_t i = r; !done.load(); ++i) {
          store.load(keys[i % keys.size()]);
          ++reads;
        }
      });
    std::atomic<int> rejected{0};
    std::vector<std::thread> appenders;
    for (std::size_t a = 0; a < 4; ++a)
      appenders.emplace_back([&, a] {
        while (reads.load() < 100) std::this_thread::yield();
        for (std::size_t k = a; k < keys.size(); k += 4) {
          try {
            for (int d = 1; d <= kDays; ++d)
              store.append(spec(keys[k]), static_cast<std::uint64_t>(d) * 24,
                           day_of(20 + d));
          } catch (const DataError&) {
            ++rejected;  // a gap: the machine lost an appended day
          }
        }
      });
    for (std::thread& appender : appenders) appender.join();
    done = true;
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(rejected.load(), 0);
    for (const std::string& key : keys) {
      EXPECT_EQ(store.next_index(key), (kDays + 1) * 24u) << key;
      EXPECT_EQ(store.snapshot(key)->day_count(), kDays + 1) << key;
    }
  }
}

// ---- crash consistency: the rollup failpoint ----

class RollupFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::instance().reset(); }
};

TEST_F(RollupFailpointTest, FailedCloseLeavesTheMachineRetryable) {
  TraceStore store;
  const std::vector<ResourceSample> day = day_of(10);
  Failpoints::instance().arm_from_spec("ingest.rollup.fail=every:1");
  EXPECT_THROW(store.append(spec(), 0, day), RollupError);
  // The day is fully buffered but unclosed; the frontier already covers it.
  EXPECT_EQ(store.snapshot("m0")->day_count(), 0);
  EXPECT_EQ(store.buffered_samples("m0"), 24u);
  EXPECT_EQ(store.next_index("m0"), 24u);

  // An idempotent client retry (same frame) must dedup every sample AND
  // re-attempt the pending close — the wedge this path once had.
  Failpoints::instance().reset();
  const AppendResult retry = store.append(spec(), 0, day);
  EXPECT_EQ(retry.duplicates, day.size());
  EXPECT_EQ(retry.accepted, 0u);
  EXPECT_EQ(retry.days_closed, 1u);
  EXPECT_EQ(store.snapshot("m0")->day_count(), 1);
  EXPECT_EQ(store.buffered_samples("m0"), 0u);
}

TEST_F(RollupFailpointTest, MidBatchFailureKeepsEarlierDaysAndProgress) {
  TraceStore store;
  std::vector<ResourceSample> batch;
  for (const int load : {5, 50})
    for (const ResourceSample& s : day_of(load)) batch.push_back(s);
  // First close succeeds, second one fails mid-frame.
  Failpoints::instance().arm_from_spec("ingest.rollup.fail=every:2");
  EXPECT_THROW(store.append(spec(), 0, batch), RollupError);
  EXPECT_EQ(store.snapshot("m0")->day_count(), 1);
  EXPECT_EQ(store.next_index("m0"), batch.size());

  Failpoints::instance().reset();
  const AppendResult retry = store.append(spec(), 0, batch);
  EXPECT_EQ(retry.duplicates, batch.size());
  EXPECT_EQ(retry.days_closed, 1u);  // only the pending day closes
  const std::shared_ptr<const MachineTrace> snap = store.snapshot("m0");
  ASSERT_EQ(snap->day_count(), 2);
  EXPECT_EQ(snap->at(0, 0).host_load_pct, 5);
  EXPECT_EQ(snap->at(1, 0).host_load_pct, 50);
}

}  // namespace
}  // namespace fgcs
