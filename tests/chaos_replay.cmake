# Replay determinism gate for the chaos driver with the thread pool active:
# runs `fgcs_chaos --scenario service` (then registry, churn and the other
# legs below) twice with FGCS_THREADS=4 (forcing the batch fan-out onto four
# pool workers even on a single-CPU host) and fails unless both runs exit 0
# with byte-identical output. Guards the tool's
# same-flags → same-bytes contract against thread-order-dependent counters
# leaking into the report.
#
# Invoked as: cmake -DCHAOS_BIN=<path-to-fgcs_chaos> -P chaos_replay.cmake
if(NOT DEFINED CHAOS_BIN)
  message(FATAL_ERROR "chaos_replay.cmake requires -DCHAOS_BIN=<fgcs_chaos>")
endif()

set(ENV{FGCS_THREADS} 4)
foreach(run first second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario service --seed 11 --machines 4 --days 9
            --jobs 6
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos ${run} run failed (rc=${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()

if(NOT first_out STREQUAL second_out)
  message(FATAL_ERROR
    "fgcs_chaos service scenario is not replay-stable with FGCS_THREADS=4\n"
    "--- first run ---\n${first_out}\n--- second run ---\n${second_out}")
endif()
message(STATUS "chaos service scenario replayed byte-identically (pool x4)")

# Registry and churn legs: both scenarios probe the fleet with one
# try_predict_batch per placement, fanned out over the four pool workers.
# Their failpoints (registry enumeration drops and stale lookups; guest
# revocation) fire on the driver thread, and the probe answers are placed by
# index, so the jobs, outcomes and failpoint table must replay
# byte-identically.
foreach(scenario registry churn)
  foreach(run first second)
    execute_process(
      COMMAND ${CHAOS_BIN} --scenario ${scenario} --seed 11 --machines 4
              --days 9 --jobs 6
      OUTPUT_VARIABLE ${scenario}_${run}_out
      ERROR_VARIABLE ${scenario}_${run}_err
      RESULT_VARIABLE ${scenario}_${run}_rc)
    if(NOT ${scenario}_${run}_rc EQUAL 0)
      message(FATAL_ERROR
        "fgcs_chaos ${scenario} ${run} run failed "
        "(rc=${${scenario}_${run}_rc}):\n${${scenario}_${run}_err}")
    endif()
  endforeach()
  if(NOT ${scenario}_first_out STREQUAL ${scenario}_second_out)
    message(FATAL_ERROR
      "fgcs_chaos ${scenario} scenario is not replay-stable with "
      "FGCS_THREADS=4\n--- first run ---\n${${scenario}_first_out}\n"
      "--- second run ---\n${${scenario}_second_out}")
  endif()
  if(NOT ${scenario}_first_out MATCHES "completed [1-9][0-9]*/6")
    message(FATAL_ERROR
      "fgcs_chaos ${scenario} completed no job:\n${${scenario}_first_out}")
  endif()
  message(STATUS
    "chaos ${scenario} scenario replayed byte-identically (pool x4)")
endforeach()

# Network leg: the net scenario drives real loopback sockets through a
# failpoint storm (frame corruption, short reads, stalled writes, dropped
# accepts). Its report prints only deterministic values — per-accept and
# per-frame injection points plus post-stop() counter snapshots — so the same
# flags must replay to the same bytes even though the transport underneath is
# being actively damaged.
foreach(run net_first net_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario net --seed 11 --machines 3 --days 9
            --jobs 5
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos net ${run} run failed (rc=${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()

if(NOT net_first_out STREQUAL net_second_out)
  message(FATAL_ERROR
    "fgcs_chaos net scenario is not replay-stable with FGCS_THREADS=4\n"
    "--- first run ---\n${net_first_out}\n--- second run ---\n${net_second_out}")
endif()
message(STATUS "chaos net scenario replayed byte-identically (loopback storm)")

# Multi-reactor leg: the same storm against a 4-reactor server. Hand-off
# placement is forced (deterministic round-robin), every failpoint is
# evaluated per accept or per frame in a sequential driver's order, and the
# report includes the per-reactor counter split — so even the sharded
# server must replay to the same bytes, seed-pinned.
foreach(run mr_first mr_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario net --seed 11 --machines 3 --days 9
            --jobs 5 --reactors 4
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos net --reactors 4 ${run} run failed (rc=${${run}_rc}):\n"
      "${${run}_err}")
  endif()
endforeach()

if(NOT mr_first_out STREQUAL mr_second_out)
  message(FATAL_ERROR
    "fgcs_chaos net scenario is not replay-stable at 4 reactors\n"
    "--- first run ---\n${mr_first_out}\n--- second run ---\n${mr_second_out}")
endif()
if(NOT mr_first_out MATCHES "reactors=4")
  message(FATAL_ERROR
    "fgcs_chaos --reactors 4 did not report the sharded server:\n"
    "${mr_first_out}")
endif()
message(STATUS "chaos net scenario replayed byte-identically (4 reactors)")

# Observability leg: the same scenario with FGCS_TRACE_FILE set must produce
# the *same* bytes — metrics and tracing are pure observers, never allowed to
# perturb the replayed report.
if(DEFINED TRACE_FILE)
  set(ENV{FGCS_TRACE_FILE} ${TRACE_FILE})
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario service --seed 11 --machines 4 --days 9
            --jobs 6
    OUTPUT_VARIABLE traced_out
    ERROR_VARIABLE traced_err
    RESULT_VARIABLE traced_rc)
  if(NOT traced_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos traced run failed (rc=${traced_rc}):\n${traced_err}")
  endif()
  if(NOT traced_out STREQUAL first_out)
    message(FATAL_ERROR
      "fgcs_chaos output changed when FGCS_TRACE_FILE was set\n"
      "--- untraced ---\n${first_out}\n--- traced ---\n${traced_out}")
  endif()
  if(NOT EXISTS ${TRACE_FILE})
    message(FATAL_ERROR "traced run wrote no trace file at ${TRACE_FILE}")
  endif()
  file(SIZE ${TRACE_FILE} trace_size)
  if(trace_size EQUAL 0)
    message(FATAL_ERROR "trace file ${TRACE_FILE} is empty")
  endif()
  message(STATUS
    "chaos replay byte-identical with tracing on (${trace_size} trace bytes)")
endif()

# Planner leg: the availability-target planner rides a replica-churn storm on
# the transient-VM fleet (replicas lost at launch, every-Nth fleet probe
# failing to estimate). The service is pinned to max_threads=1 inside the
# scenario, so even with the pool forced to 4 workers the probe order — and
# with it the every:7 estimate-fault attribution, every plan line, and the
# FailpointStats table — must replay byte-identically.
foreach(run pl_first pl_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario planner --seed 11 --machines 6 --days 10
            --jobs 6
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos planner ${run} run failed (rc=${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()

if(NOT pl_first_out STREQUAL pl_second_out)
  message(FATAL_ERROR
    "fgcs_chaos planner scenario is not replay-stable with FGCS_THREADS=4\n"
    "--- first run ---\n${pl_first_out}\n--- second run ---\n${pl_second_out}")
endif()
if(NOT pl_first_out MATCHES "plan ")
  message(FATAL_ERROR
    "fgcs_chaos planner printed no plan lines:\n${pl_first_out}")
endif()
message(STATUS "chaos planner scenario replayed byte-identically (churn storm)")

# Ingest leg: the streaming scenario replays a fleet of monitors through
# append-drop and rollup-failure storms with idempotent retries. Every number
# in its report — ack totals, generation counts, server/client counters, the
# failpoint table — is derived from per-frame/per-close injection points in a
# sequential driver's order, so it must replay byte-identically too.
foreach(run ing_first ing_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario ingest --seed 11 --machines 3 --days 6
            --jobs 5
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos ingest ${run} run failed (rc=${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()

if(NOT ing_first_out STREQUAL ing_second_out)
  message(FATAL_ERROR
    "fgcs_chaos ingest scenario is not replay-stable with FGCS_THREADS=4\n"
    "--- first run ---\n${ing_first_out}\n--- second run ---\n${ing_second_out}")
endif()
if(NOT ing_first_out MATCHES "history-identical")
  message(FATAL_ERROR
    "fgcs_chaos ingest did not report converged histories:\n${ing_first_out}")
endif()
message(STATUS "chaos ingest scenario replayed byte-identically (storm stream)")

# Ingest at 4 reactors: appends and predictions sharded over reactor-owned
# connections, counters attributed per reactor, still byte-stable.
foreach(run ing4_first ing4_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario ingest --seed 11 --machines 3 --days 6
            --jobs 5 --reactors 4
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos ingest --reactors 4 ${run} run failed (rc=${${run}_rc}):\n"
      "${${run}_err}")
  endif()
endforeach()

if(NOT ing4_first_out STREQUAL ing4_second_out)
  message(FATAL_ERROR
    "fgcs_chaos ingest scenario is not replay-stable at 4 reactors\n"
    "--- first run ---\n${ing4_first_out}\n--- second run ---\n${ing4_second_out}")
endif()
if(NOT ing4_first_out MATCHES "reactors=4")
  message(FATAL_ERROR
    "fgcs_chaos ingest --reactors 4 did not report the sharded server:\n"
    "${ing4_first_out}")
endif()
message(STATUS "chaos ingest scenario replayed byte-identically (4 reactors)")

# Gossip leg: the decentralized-registry storm — a seed-pinned 3-node
# partition/crash/restart script under gossip.drop / gossip.delay, then the
# converged ring serving jobs across three shards through deliberately staled
# client views. Convergence rounds, membership digests, every TR bit, the
# kWrongShard counters, and the failpoint table must all replay
# byte-identically run to run.
foreach(run go_first go_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario gossip --seed 11 --machines 3 --days 8
            --jobs 5
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos gossip ${run} run failed (rc=${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()

if(NOT go_first_out STREQUAL go_second_out)
  message(FATAL_ERROR
    "fgcs_chaos gossip scenario is not replay-stable with FGCS_THREADS=4\n"
    "--- first run ---\n${go_first_out}\n--- second run ---\n${go_second_out}")
endif()
if(NOT go_first_out MATCHES "phase restart +converged")
  message(FATAL_ERROR
    "fgcs_chaos gossip did not report a converged restart phase:\n"
    "${go_first_out}")
endif()
message(STATUS "chaos gossip scenario replayed byte-identically (ring storm)")

# Gossip at 4 reactors: each shard server runs the multi-reactor accept
# hand-off; the sharded serving phase (including the per-shard wrong_shard
# split) must stay byte-stable.
foreach(run go4_first go4_second)
  execute_process(
    COMMAND ${CHAOS_BIN} --scenario gossip --seed 11 --machines 3 --days 8
            --jobs 5 --reactors 4
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE ${run}_rc)
  if(NOT ${run}_rc EQUAL 0)
    message(FATAL_ERROR
      "fgcs_chaos gossip --reactors 4 ${run} run failed (rc=${${run}_rc}):\n"
      "${${run}_err}")
  endif()
endforeach()

if(NOT go4_first_out STREQUAL go4_second_out)
  message(FATAL_ERROR
    "fgcs_chaos gossip scenario is not replay-stable at 4 reactors\n"
    "--- first run ---\n${go4_first_out}\n--- second run ---\n${go4_second_out}")
endif()
if(NOT go4_first_out MATCHES "reactors=4")
  message(FATAL_ERROR
    "fgcs_chaos gossip --reactors 4 did not report the sharded server:\n"
    "${go4_first_out}")
endif()
message(STATUS "chaos gossip scenario replayed byte-identically (4 reactors)")
