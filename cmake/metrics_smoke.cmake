# Metrics smoke run (ctest `metrics_smoke*`): run an example with
# ST_METRICS pointed at a scratch file, then fail unless the atexit
# snapshot validates under tools/metrics_lint (stmp-metrics-v1 schema).
# Parameters: -DPROGRAM=..., -DARGS="space-separated arguments",
# -DMETRICS_LINT=..., -DOUT=... (see tests/CMakeLists.txt).
if(NOT PROGRAM OR NOT METRICS_LINT OR NOT OUT)
  message(FATAL_ERROR "metrics_smoke.cmake needs -DPROGRAM, -DMETRICS_LINT, -DOUT")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

file(REMOVE "${OUT}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "ST_METRICS=${OUT}" "ST_METRICS_PERIOD_MS=20"
          "ST_STALL_MS=2000" "${PROGRAM}" ${args}
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "metered run of ${PROGRAM} ${ARGS} failed (rc=${run_rc})")
endif()

if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "ST_METRICS=${OUT} produced no snapshot file")
endif()

execute_process(COMMAND "${METRICS_LINT}" "${OUT}" RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "metrics snapshot ${OUT} failed metrics_lint (rc=${lint_rc})")
endif()
