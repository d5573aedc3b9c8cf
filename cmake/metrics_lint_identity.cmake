# Steal-identity check of tools/metrics_lint (ctest `metrics_lint_identity`):
# a hand-written snapshot whose runtime counters satisfy
# steal_attempts == steals_received + steals_rejected + steals_cancelled
# must pass, and the same snapshot with one extra attempt must be
# rejected with the identity diagnostic.
# Parameters: -DMETRICS_LINT=..., -DOUTDIR=... (see tests/CMakeLists.txt).
if(NOT METRICS_LINT OR NOT OUTDIR)
  message(FATAL_ERROR "metrics_lint_identity.cmake needs -DMETRICS_LINT, -DOUTDIR")
endif()
file(MAKE_DIRECTORY "${OUTDIR}")

function(snapshot path attempts)
  file(WRITE "${path}"
    "{\"schema\":\"stmp-metrics-v1\",\"wall_ns\":1,\"enabled\":true,"
    "\"sections\":[{\"kind\":\"runtime\",\"workers\":2,\"idle_wakes\":0,"
    "\"counters\":{\"forks\":40,\"steals_served\":3,\"steals_received\":3,"
    "\"steal_attempts\":${attempts},\"steals_rejected\":2,\"steals_cancelled\":1},"
    "\"per_worker\":[{\"id\":0,\"sets\":{\"E\":0,\"R\":0,\"X\":0}},"
    "{\"id\":1,\"sets\":{\"E\":0,\"R\":0,\"X\":0}}],\"histograms\":[]}]}\n")
endfunction()

snapshot("${OUTDIR}/identity_ok.json" 6)
execute_process(COMMAND "${METRICS_LINT}" "${OUTDIR}/identity_ok.json"
  RESULT_VARIABLE ok_rc)
if(NOT ok_rc EQUAL 0)
  message(FATAL_ERROR "metrics_lint rejected a snapshot that keeps the identity (rc=${ok_rc})")
endif()

snapshot("${OUTDIR}/identity_broken.json" 7)
execute_process(COMMAND "${METRICS_LINT}" "${OUTDIR}/identity_broken.json"
  RESULT_VARIABLE bad_rc ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 1 OR NOT bad_err MATCHES "steal identity broken")
  message(FATAL_ERROR
    "metrics_lint did not reject a broken steal identity (rc=${bad_rc}): ${bad_err}")
endif()
message(STATUS "metrics_lint rejected the broken snapshot: ${bad_err}")
