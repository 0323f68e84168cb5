#include "trace/trace_store.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/failpoint.hpp"

namespace fgcs {

namespace {

void validate(const MachineSpec& spec) {
  if (spec.machine_id.empty())
    throw DataError("ingest: machine id must be non-empty");
  if (spec.epoch_day_of_week < 0 || spec.epoch_day_of_week > 6)
    throw DataError("ingest: epoch day of week out of range");
  if (spec.sampling_period < 1 || kSecondsPerDay % spec.sampling_period != 0)
    throw DataError("ingest: sampling period must divide 86400");
  if (spec.total_mem_mb < 1)
    throw DataError("ingest: total memory must be positive");
}

void require_same_spec(const MachineSpec& have, const MachineSpec& got) {
  if (have.epoch_day_of_week != got.epoch_day_of_week ||
      have.sampling_period != got.sampling_period ||
      have.total_mem_mb != got.total_mem_mb)
    throw DataError("ingest: machine spec for '" + got.machine_id +
                    "' contradicts its registration");
}

}  // namespace

TraceStore::TraceStore(TraceStoreConfig config, DayClosedCallback on_day_closed,
                       Loader loader)
    : config_(config),
      on_day_closed_(std::move(on_day_closed)),
      loader_(std::move(loader)) {
  FGCS_REQUIRE(config_.retention_days >= 0);
}

std::shared_ptr<TraceStore::Machine> TraceStore::make_machine(
    MachineTrace trace) {
  auto machine = std::make_shared<Machine>();
  machine->spec = MachineSpec{
      .machine_id = trace.machine_id(),
      .epoch_day_of_week = trace.calendar().epoch_day_of_week(),
      .sampling_period = trace.sampling_period(),
      .total_mem_mb = trace.total_mem_mb()};
  machine->closed_days = trace.day_count();
  machine->trace = std::make_shared<const MachineTrace>(std::move(trace));
  return machine;
}

TraceStore::Locked TraceStore::find(const std::string& machine_id,
                                    bool append) const {
  std::unique_lock<std::mutex> registry(registry_mutex_);
  const auto it = machines_.find(machine_id);
  if (it == machines_.end()) return {};
  std::shared_ptr<Machine> machine = it->second;
  if (machine->last_read != 0) machine->last_read = append ? 0 : ++read_clock_;
  registry.unlock();
  std::unique_lock<std::mutex> lock(machine->mutex);
  return {std::move(machine), std::move(lock)};
}

TraceStore::Locked TraceStore::known(const std::string& machine_id) const {
  Locked locked = find(machine_id, /*append=*/false);
  if (locked.machine == nullptr)
    throw DataError("ingest: unknown machine '" + machine_id + "'");
  return locked;
}

TraceStore::Locked TraceStore::acquire(const std::string& machine_id,
                                       const MachineSpec* spec) {
  const bool append = spec != nullptr;
  if (Locked held = find(machine_id, append); held.machine) return held;
  if (!loader_ && !append) return known(machine_id);  // throws
  const std::lock_guard<std::mutex> inserting(insert_mutex_);
  if (Locked held = find(machine_id, append); held.machine) return held;
  std::optional<MachineTrace> trace;
  if (loader_) {
    try {
      trace = loader_(machine_id);
      trace->set_machine_id(machine_id);
      loads_.fetch_add(1);
    } catch (const DataError&) {
      if (!append) throw;  // an appender registers a machine no file holds
    }
  }
  if (!trace)
    trace.emplace(machine_id, Calendar(spec->epoch_day_of_week),
                  spec->sampling_period, spec->total_mem_mb);
  std::shared_ptr<Machine> machine = make_machine(std::move(*trace));
  {
    const std::lock_guard<std::mutex> registry(registry_mutex_);
    if (!append) {
      evict_for_load();
      machine->last_read = ++read_clock_;
    }
    machines_.emplace(machine_id, machine);
  }
  std::unique_lock<std::mutex> lock(machine->mutex);
  return {std::move(machine), std::move(lock)};
}

void TraceStore::evict_for_load() {
  // Loads arrive one at a time, so one eviction keeps the cap.
  std::size_t loaded = 0;
  auto victim = machines_.end();
  for (auto it = machines_.begin(); it != machines_.end(); ++it) {
    if (it->second->last_read == 0) continue;
    ++loaded;
    if (victim == machines_.end() ||
        it->second->last_read < victim->second->last_read)
      victim = it;
  }
  if (loaded >= config_.max_loaded && victim != machines_.end())
    machines_.erase(victim);  // readers still pin its snapshot
}

void TraceStore::adopt_trace(MachineTrace trace) {
  const std::string id = trace.machine_id();
  std::shared_ptr<Machine> machine = make_machine(std::move(trace));
  const std::lock_guard<std::mutex> inserting(insert_mutex_);
  const std::lock_guard<std::mutex> registry(registry_mutex_);
  if (!machines_.emplace(id, std::move(machine)).second)
    throw DataError("ingest: machine '" + id + "' already exists");
}

void TraceStore::close_day(Machine& machine, AppendResult& result) {
  if (FGCS_FAILPOINT("ingest.rollup.fail"))
    throw RollupError("injected rollup failure (ingest.rollup.fail)");
  const MachineTrace& current = *machine.trace;
  // Every day beyond the budget goes, not just one: an adopted or loaded
  // history longer than the budget shrinks to it at its first close.
  const std::int64_t retire =
      config_.retention_days > 0
          ? std::max<std::int64_t>(
                0, current.day_count() + 1 - config_.retention_days)
          : 0;
  MachineTrace next =
      retire > 0 ? current.slice(retire, current.day_count()) : current;
  next.append_day(std::move(machine.buffer));
  machine.buffer = {};
  machine.buffer.reserve(next.samples_per_day());
  machine.trace = std::make_shared<const MachineTrace>(std::move(next));
  ++machine.closed_days;
  machine.first_day_id += retire;
  ++result.days_closed;
  result.days_retired += static_cast<std::uint64_t>(retire);
  if (on_day_closed_) on_day_closed_(machine.spec.machine_id);
}

AppendResult TraceStore::append(const MachineSpec& spec,
                                std::uint64_t first_sample_index,
                                std::span<const ResourceSample> samples) {
  FGCS_REQUIRE(!samples.empty());
  validate(spec);
  const Locked locked = acquire(spec.machine_id, &spec);
  Machine& machine = *locked.machine;
  require_same_spec(machine.spec, spec);
  const std::size_t per_day = machine.trace->samples_per_day();
  machine.buffer.reserve(per_day);  // first append only
  AppendResult result;
  std::uint64_t next =
      static_cast<std::uint64_t>(machine.closed_days) * per_day +
      machine.buffer.size();
  if (first_sample_index > next)
    throw DataError("ingest: append starts at index " +
                    std::to_string(first_sample_index) + " but machine '" +
                    spec.machine_id + "' expects " + std::to_string(next) +
                    " — sample gaps cannot be represented");
  // A previous close may have thrown (e.g. an injected rollup failure)
  // after a full day was buffered; its samples dedup as duplicates on the
  // retry, so the `== per_day` trigger below can never fire for them again.
  // Retry the close up front — `next` is invariant under it.
  if (machine.buffer.size() == per_day) close_day(machine, result);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t index = first_sample_index + i;
    if (index < next) {
      ++result.duplicates;
      continue;
    }
    machine.buffer.push_back(samples[i]);
    ++result.accepted;
    ++next;
    if (machine.buffer.size() == per_day) close_day(machine, result);
  }
  result.next_index = next;
  return result;
}

std::shared_ptr<const MachineTrace> TraceStore::snapshot(
    const std::string& machine_id) const {
  const Locked locked = find(machine_id, /*append=*/false);
  return locked.machine ? locked.machine->trace : nullptr;
}

std::shared_ptr<const MachineTrace> TraceStore::load(
    const std::string& machine_id) {
  return acquire(machine_id, nullptr).machine->trace;
}

std::int64_t TraceStore::first_day_id(const std::string& machine_id) const {
  return known(machine_id).machine->first_day_id;
}

std::uint64_t TraceStore::next_index(const std::string& machine_id) const {
  const Locked locked = known(machine_id);
  return static_cast<std::uint64_t>(locked.machine->closed_days) *
             locked.machine->trace->samples_per_day() +
         locked.machine->buffer.size();
}

std::size_t TraceStore::buffered_samples(const std::string& machine_id) const {
  return known(machine_id).machine->buffer.size();
}

std::size_t TraceStore::machine_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return machines_.size();
}

}  // namespace fgcs
