# Cross-process replay gate for one fgcs_chaos row: runs
# `CHAOS_BIN ${ARGS}` twice with FGCS_THREADS=4 (forcing batch fan-out onto
# four pool workers even on a one-CPU host) and fails unless both runs exit
# 0, print byte-identical stdout, and that stdout matches every regex in
# EXPECT. With TRACE_FILE, only the second run is traced and the trace file
# must come out non-empty: tracing is a pure observer, so it must not change
# one byte of the report.
#
# Invoked as (one row of tests/CMakeLists.txt's fgcs_chaos_replay table):
#   cmake -DCHAOS_BIN=<fgcs_chaos> "-DARGS=<flag;list>" "-DEXPECT=<regex;list>"
#         [-DTRACE_FILE=<path>] -P chaos_replay.cmake
if(NOT DEFINED CHAOS_BIN OR NOT DEFINED ARGS)
  message(FATAL_ERROR "chaos_replay.cmake requires -DCHAOS_BIN and -DARGS")
endif()

string(REPLACE ";" " " cmdline "fgcs_chaos;${ARGS}")
set(ENV{FGCS_THREADS} 4)
unset(ENV{FGCS_TRACE_FILE})
foreach(run first second)
  if(run STREQUAL "second" AND DEFINED TRACE_FILE)
    file(REMOVE ${TRACE_FILE})
    set(ENV{FGCS_TRACE_FILE} ${TRACE_FILE})
  endif()
  execute_process(COMMAND ${CHAOS_BIN} ${ARGS}
    OUTPUT_VARIABLE ${run} ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmdline}: ${run} run failed (rc=${rc}):\n"
      "${err}\n--- stdout ---\n${${run}}")
  endif()
endforeach()

if(NOT first STREQUAL second)
  message(FATAL_ERROR "${cmdline} did not replay byte-identically\n"
    "--- first run ---\n${first}\n--- second run ---\n${second}")
endif()
foreach(regex IN LISTS EXPECT)
  if(NOT first MATCHES "${regex}")
    message(FATAL_ERROR "${cmdline}: no match for '${regex}' in\n${first}")
  endif()
endforeach()
if(DEFINED TRACE_FILE)
  if(NOT EXISTS ${TRACE_FILE})
    message(FATAL_ERROR "traced run wrote no trace file at ${TRACE_FILE}")
  endif()
  file(SIZE ${TRACE_FILE} trace_size)
  if(trace_size EQUAL 0)
    message(FATAL_ERROR "trace file ${TRACE_FILE} is empty")
  endif()
endif()
message(STATUS "${cmdline} replayed byte-identically")
