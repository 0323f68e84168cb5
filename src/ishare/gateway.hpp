// ishare gateway (paper Fig. 2): the per-host daemon that answers
// reliability queries from clients and controls guest processes — launching
// them, and (through the machine model) renicing, suspending or killing them
// as the host load crosses the thresholds.
//
// Guest execution optionally checkpoints, either on a fixed interval or
// adaptively from predicted TR — the proactive job management the paper's
// introduction motivates (refs [20][31]) and §8 plans to integrate.
//
// The gateway holds only non-owning views: the trace must outlive it, and
// query_reliability/execute may be called concurrently only when the trace
// is not being appended to at the same time. All TR queries (including the
// adaptive-checkpoint probes inside execute) go through the fleet-wide
// PredictionService its state manager holds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/prediction_service.hpp"
#include "core/thresholds.hpp"
#include "ishare/state_manager.hpp"
#include "sim/machine.hpp"
#include "trace/machine_trace.hpp"

namespace fgcs {

enum class CheckpointMode : std::uint8_t { kNone, kFixed, kAdaptive };

const char* to_string(CheckpointMode mode);

struct CheckpointConfig {
  /// Guest CPU seconds consumed by writing one checkpoint.
  double cost_seconds = 60.0;
  /// Interval for kFixed mode (wall-clock seconds).
  SimTime fixed_interval = 1800;
  /// kAdaptive: look this far ahead when probing TR…
  SimTime probe_window = 3600;
  /// …and checkpoint frequently when predicted TR falls below this…
  double tr_low = 0.85;
  SimTime short_interval = 300;
  /// …or rarely when the machine looks reliable.
  SimTime long_interval = 5400;
};

struct ExecutionResult {
  bool completed = false;
  /// Set when the guest was lost to a failure state (S3/S4/S5).
  std::optional<State> failure;
  /// Simulation time when the guest completed, failed, or ran out of trace.
  SimTime end_time = 0;
  /// CPU work finished by the guest when execution stopped.
  double progress_seconds = 0.0;
  /// CPU work preserved by the most recent checkpoint (0 without one).
  double saved_progress_seconds = 0.0;
  int checkpoints_taken = 0;
};

class Gateway {
 public:
  /// `trace` is the machine's full monitored timeline; predictions at time t
  /// only consult days strictly before t's day, execution replays from t on.
  /// `service` answers every TR query and must not be null.
  Gateway(const MachineTrace& trace, Thresholds thresholds,
          std::shared_ptr<PredictionService> service);

  const std::string& machine_id() const { return trace_.machine_id(); }
  const StateManager& state_manager() const { return state_manager_; }

  /// Temporal reliability for a job of `duration` seconds submitted at `now`.
  double query_reliability(SimTime now, SimTime duration) const;

  /// Runs `job` on this host from `start` until completion, failure, or
  /// `deadline` (also bounded by the recorded trace).
  ExecutionResult execute(const GuestJobSpec& job, SimTime start,
                          SimTime deadline,
                          CheckpointMode mode = CheckpointMode::kNone,
                          const CheckpointConfig& checkpoint = {}) const;

 private:
  const MachineTrace& trace_;
  Thresholds thresholds_;
  StateManager state_manager_;
};

}  // namespace fgcs
