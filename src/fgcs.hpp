// Umbrella header for the fgcs library.
//
// Reproduction of "Resource Availability Prediction in Fine-Grained Cycle
// Sharing Systems" (HPDC 2006). See README.md for a tour and DESIGN.md for
// the architecture and experiment map.
#pragma once

// Core: the paper's contribution.
#include "core/analysis.hpp"      // MTTF, failure modes, confidence intervals
#include "core/classifier.hpp"      // samples → 5-state availability model
#include "core/curve_cache.hpp"     // one-pass Eq. 3 build, both initial states
#include "core/empirical.hpp"       // empirical TR, evaluation metrics
#include "core/estimator.hpp"       // Q/H estimation from history logs
#include "core/predictor.hpp"       // the public prediction API
#include "core/prediction_service.hpp"  // batched + memoized fleet serving
#include "core/semi_markov.hpp"     // discrete-time SMP + dense solver
#include "core/sparse_solver.hpp"   // Eq. 3 as written: the bit reference
#include "core/states.hpp"
#include "core/thresholds.hpp"

// Substrates.
#include "ishare/gateway.hpp"
#include "net/client.hpp"       // networked prediction serving (client)
#include "net/server.hpp"       // networked prediction serving (server)
#include "net/wire.hpp"         // framed binary wire protocol
#include "ishare/registry.hpp"
#include "ishare/replication.hpp"
#include "ishare/replication_planner.hpp"  // availability-target planning
#include "ishare/resource_monitor.hpp"
#include "ishare/scheduler.hpp"
#include "ishare/state_manager.hpp"
#include "sim/contention.hpp"
#include "sim/cpu_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "timeseries/ar.hpp"
#include "timeseries/arma.hpp"
#include "timeseries/frequency_baseline.hpp"
#include "timeseries/ma.hpp"
#include "timeseries/model.hpp"
#include "timeseries/simple.hpp"
#include "timeseries/tr_predictor.hpp"
#include "trace/machine_trace.hpp"
#include "trace/sample.hpp"
#include "trace/trace_store.hpp"    // streaming ingest day-boundary rollup
#include "trace/window.hpp"
#include "workload/catalog.hpp"
#include "workload/characterize.hpp"
#include "workload/noise.hpp"
#include "workload/preemption.hpp"  // transient-VM preemption traces
#include "workload/profile.hpp"
#include "workload/replay.hpp"
#include "workload/trace_generator.hpp"

// Utilities.
#include "util/failpoint.hpp"
#include "util/metrics.hpp"     // counters/gauges/histograms + render_text
#include "util/parallel.hpp"
#include "util/trace_span.hpp"  // FGCS_SPAN + the JSONL trace log
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
