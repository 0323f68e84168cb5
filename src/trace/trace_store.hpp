// TraceStore — day-boundary rollup for streaming sample ingestion.
//
// Monitors stream contiguous batches of packed samples addressed by an
// *absolute sample index* (day · samples_per_day + offset since the
// machine's epoch). The store buffers the partial current day per machine;
// when the buffer fills it "closes" the day: a new MachineTrace is built
// with the day appended (and, when a retention budget is set, every day
// beyond it retired, oldest first — the paper's sliding N-day training
// history), then swapped in as an immutable snapshot. Readers pin snapshots
// with shared_ptr, so prediction batches never block behind ingestion and
// never observe a half-rolled day; a close costs one O(history) trace copy
// per machine-day, which at one close per day per machine is noise.
//
// Idempotence: appends whose indices the store already covers are counted
// as duplicates and skipped, so a client may blindly retry a whole batch
// after any transport failure. A batch *starting beyond* the next expected
// index is rejected (DataError): monitors backfill outages as down-time
// (resource_monitor's heartbeat trick), so a genuine gap means the sender
// and the store disagree about history, which no retry can fix.
//
// Failpoints (tests/chaos): `ingest.rollup.fail` is evaluated once per
// day-close, *before* the close mutates anything; it throws RollupError
// with the day's samples still buffered and the append's earlier samples
// retained, so a retried batch dedups the overlap and resumes the close.
//
// Loading: the first load() or append naming a key the store lacks runs
// the Loader once (insertions serialize), and the trace takes the key as
// its machine id. An append continues that history, or starts an empty one
// when the loader has none. Loaded machines no append has touched are a
// cache: past max_loaded the least recently read is evicted, under the
// registry mutex like an append's promotion out of it, so an append never
// lands on an evicted machine.
//
// Thread-safety: all public methods are safe to call concurrently; each
// machine is guarded by its own mutex (appends for one machine serialize,
// different machines proceed in parallel). The day-closed callback runs
// under the appending machine's lock and must not call back into the
// store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "trace/machine_trace.hpp"
#include "trace/sample.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace fgcs {

/// A day-close was injected to fail (ingest.rollup.fail). Transient by
/// construction — the store's state is untouched and a retry of the same
/// batch resumes the close — so the serving layer reports it retryable,
/// unlike the semantic DataErrors (gap, spec mismatch) that fail every
/// retry identically.
class RollupError : public DataError {
 public:
  using DataError::DataError;
};

struct TraceStoreConfig {
  /// Sliding-history budget in days per machine; closing a day retires the
  /// oldest days until the trace holds at most this many (an adopted or
  /// loaded history longer than the budget shrinks to it at its first
  /// close). 0 (default) keeps all history.
  std::int64_t retention_days = 0;
  /// Loaded machines that have never taken an append, held at once; the
  /// least recently read is evicted to make room for a new load.
  std::size_t max_loaded = 32;
};

/// Self-describing machine registration, as carried by every append frame.
struct MachineSpec {
  std::string machine_id;
  int epoch_day_of_week = 0;  ///< 0 = Monday … 6 = Sunday
  SimTime sampling_period = 6;
  int total_mem_mb = 1024;
};

/// Exact bookkeeping for one append call (mirrors the wire ack).
struct AppendResult {
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t next_index = 0;
  std::uint64_t days_closed = 0;
  std::uint64_t days_retired = 0;
};

class TraceStore {
 public:
  /// Fired with the machine's id once per closed day, after the snapshot
  /// swap, under the machine's lock.
  using DayClosedCallback =
      std::function<void(const std::string& machine_id)>;
  /// The history of a key the store lacks, or DataError when there is none.
  /// Runs under the store's insertion lock: must not call into the store.
  using Loader = std::function<MachineTrace(const std::string& machine_id)>;

  explicit TraceStore(TraceStoreConfig config = {},
                      DayClosedCallback on_day_closed = {},
                      Loader loader = {});

  const TraceStoreConfig& config() const { return config_; }

  /// Seeds a machine from pre-existing history (day ids start at 0, next
  /// sample index at day_count · samples_per_day). Throws DataError if the
  /// machine already exists.
  void adopt_trace(MachineTrace trace);

  /// Appends a contiguous batch starting at `first_sample_index`,
  /// auto-registering the machine on first contact (with the loader's
  /// history when it knows the id, else empty from `spec`). Skips
  /// already-covered indices (duplicates), buffers the rest, and closes
  /// day(s) when the buffer fills. Throws DataError on a spec mismatch or
  /// an index gap, RollupError when a day-close was injected to fail.
  AppendResult append(const MachineSpec& spec,
                      std::uint64_t first_sample_index,
                      std::span<const ResourceSample> samples);

  /// The machine's current immutable trace snapshot (closed days only), or
  /// nullptr for an unknown machine. Pin it for the duration of any read.
  std::shared_ptr<const MachineTrace> snapshot(
      const std::string& machine_id) const;

  /// snapshot(), except that a machine the store lacks is loaded first.
  /// Throws DataError when it is neither held nor loadable.
  std::shared_ptr<const MachineTrace> load(const std::string& machine_id);

  /// Absolute day id of snapshot day 0 (days retired so far). Throws
  /// DataError for an unknown machine.
  std::int64_t first_day_id(const std::string& machine_id) const;

  /// First absolute sample index not yet covered (buffered or rolled up).
  std::uint64_t next_index(const std::string& machine_id) const;

  /// Samples currently buffered in the machine's partial day.
  std::size_t buffered_samples(const std::string& machine_id) const;

  std::size_t machine_count() const;

  /// Histories the loader has produced (reloads after eviction included).
  std::uint64_t loads() const { return loads_.load(); }

 private:
  struct Machine {
    mutable std::mutex mutex;
    MachineSpec spec;
    std::shared_ptr<const MachineTrace> trace;
    std::vector<ResourceSample> buffer;  ///< partial current day
    std::int64_t first_day_id = 0;       ///< days retired so far
    std::int64_t closed_days = 0;        ///< absolute id of the day being buffered
    std::uint64_t last_read = 0;  ///< evictable loads only; registry_mutex_
  };

  /// A machine with its mutex held; destroys the lock before the pointer.
  struct Locked {
    std::shared_ptr<Machine> machine;
    std::unique_lock<std::mutex> lock;
  };

  static std::shared_ptr<Machine> make_machine(MachineTrace trace);
  /// The held machine, locked, or an empty Locked. A read refreshes a
  /// loaded machine's recency; an append takes it out of eviction.
  Locked find(const std::string& machine_id, bool append) const;
  /// find(), or DataError when the machine is unknown.
  Locked known(const std::string& machine_id) const;
  /// find(), loading a miss. `spec` names an appender (a miss the loader
  /// cannot fill registers it empty); a read miss nothing fills throws.
  Locked acquire(const std::string& machine_id, const MachineSpec* spec);
  /// Evicts the least recently read loaded machine when the cap is full;
  /// must hold registry_mutex_.
  void evict_for_load();
  /// Rolls the machine's full buffer into its trace; must hold its mutex.
  void close_day(Machine& machine, AppendResult& result);

  TraceStoreConfig config_;
  DayClosedCallback on_day_closed_;
  Loader loader_;
  std::mutex insert_mutex_;  ///< held across every insertion and its load
  mutable std::mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<Machine>> machines_;
  mutable std::uint64_t read_clock_ = 0;  ///< guarded by registry_mutex_
  std::atomic<std::uint64_t> loads_{0};
};

}  // namespace fgcs
