// A machine's monitored history: contiguous days of packed resource samples.
//
// This is the on-disk/in-memory form of the paper's "history logs collected
// by monitoring the host resource usages on a machine" (§4.2). The estimator
// reads clock-time window slices of it; the evaluation harness splits it into
// training and test day ranges.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "trace/sample.hpp"
#include "trace/window.hpp"
#include "util/time.hpp"

namespace fgcs {

class MachineTrace {
 public:
  /// `sampling_period` is the monitor period in seconds (paper: 6 s) and must
  /// divide 86 400. `total_mem_mb` is the machine's physical memory.
  MachineTrace(std::string machine_id, Calendar calendar,
               SimTime sampling_period, int total_mem_mb);

  const std::string& machine_id() const { return machine_id_; }
  void set_machine_id(std::string id) { machine_id_ = std::move(id); }
  const Calendar& calendar() const { return calendar_; }
  SimTime sampling_period() const { return sampling_period_; }
  int total_mem_mb() const { return total_mem_mb_; }

  std::size_t samples_per_day() const {
    return static_cast<std::size_t>(kSecondsPerDay / sampling_period_);
  }
  std::int64_t day_count() const {
    return static_cast<std::int64_t>(days_.size());
  }

  /// Appends one day of samples; the vector must hold samples_per_day() items.
  void append_day(std::vector<ResourceSample> samples);

  DayType day_type(std::int64_t day) const { return calendar_.day_type(day); }

  const ResourceSample& at(std::int64_t day, std::size_t index) const;

  /// Sample covering the absolute instant `t`.
  const ResourceSample& at_time(SimTime t) const;

  /// True if the whole window anchored on `day` lies inside recorded data
  /// (a midnight-wrapping window needs day+1 recorded too).
  bool window_in_range(std::int64_t day, const TimeWindow& window) const;

  /// Copies the window's samples (w.steps(sampling_period()) of them),
  /// following the wrap into the next day when needed.
  std::vector<ResourceSample> window_samples(std::int64_t day,
                                             const TimeWindow& window) const;

  /// A new trace holding days [first_day, last_day) of this one. The slice
  /// keeps the original calendar alignment by shifting the epoch day of
  /// week, so day types are preserved (slice(5, …) of a Monday-epoch trace
  /// starts on a Saturday).
  MachineTrace slice(std::int64_t first_day, std::int64_t last_day) const;

  /// Day indices of the given type within [first_day, last_day), ascending.
  std::vector<std::int64_t> days_of_type(DayType type, std::int64_t first_day,
                                         std::int64_t last_day) const;

  /// The most recent (up to) `n` days of `type` strictly before `before_day`,
  /// ascending. This is the paper's "most recent N weekdays (weekends)".
  std::vector<std::int64_t> recent_days_of_type(DayType type,
                                                std::int64_t before_day,
                                                std::size_t n) const;

  /// Fraction of samples with the machine up, over all recorded days.
  double uptime_fraction() const;

  /// Mean host load (fraction) over up samples.
  double mean_load() const;

  // --- serialization -------------------------------------------------------
  void save(std::ostream& os) const;
  static MachineTrace load(std::istream& is);
  void save_file(const std::string& path) const;
  static MachineTrace load_file(const std::string& path);

  /// Day dump as CSV (second_of_day, load_pct, free_mem_mb, up).
  void write_day_csv(std::ostream& os, std::int64_t day) const;

 private:
  std::string machine_id_;
  Calendar calendar_;
  SimTime sampling_period_;
  int total_mem_mb_;
  std::vector<std::vector<ResourceSample>> days_;
};

}  // namespace fgcs
