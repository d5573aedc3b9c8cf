# Environment-knob lint (ctest `env_knob_lint`): the table in README.md is
# the one list of the ST_* variables.  Fails on any
# env_long/env_string/env_double("ST_...") read under src/ that has no
# README row, on any README row that no code under src/ reads, and on a
# variable listed in more than one row.
# Parameters: -DSRC_DIR=..., -DREADME=... (see tests/CMakeLists.txt).
cmake_minimum_required(VERSION 3.16)
if(NOT SRC_DIR OR NOT README)
  message(FATAL_ERROR "env_knob_lint.cmake needs -DSRC_DIR, -DREADME")
endif()

set(read_regex "env_(long|string|double)\\(\"ST_[A-Z0-9_]+\"")
file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(read_vars "")
foreach(f IN LISTS sources)
  file(STRINGS "${f}" lines REGEX "${read_regex}")
  foreach(line IN LISTS lines)
    string(REGEX MATCHALL "${read_regex}" hits "${line}")
    foreach(hit IN LISTS hits)
      string(REGEX REPLACE ".*\"(ST_[A-Z0-9_]+)\"" "\\1" var "${hit}")
      list(APPEND read_vars "${var}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_vars)

# A row's first cell names its variables: | `ST_SCHED_RECORD=path` | ...
file(STRINGS "${README}" rows REGEX "^\\| `ST_")
set(doc_vars "")
foreach(row IN LISTS rows)
  if(NOT row MATCHES "^\\| `ST_")
    continue()  # the tail of a row that held a ';'
  endif()
  string(REGEX REPLACE "^\\|([^|]*)\\|.*" "\\1" cell "${row}")
  string(REGEX MATCHALL "ST_[A-Z0-9_]+" names "${cell}")
  list(APPEND doc_vars ${names})
endforeach()

set(errors "")
foreach(v IN LISTS read_vars)
  if(NOT v IN_LIST doc_vars)
    string(APPEND errors "  ${v}: read under src/ but has no README.md row\n")
  endif()
endforeach()
set(seen "")
foreach(v IN LISTS doc_vars)
  if(v IN_LIST seen)
    string(APPEND errors "  ${v}: listed in more than one README.md row\n")
  endif()
  list(APPEND seen "${v}")
  if(NOT v IN_LIST read_vars)
    string(APPEND errors "  ${v}: README.md row, but no code under src/ reads it\n")
  endif()
endforeach()
if(errors)
  message(FATAL_ERROR "env_knob_lint:\n${errors}")
endif()
list(LENGTH read_vars n)
message(STATUS "env_knob_lint: ${n} ST_* variables, each read under src/ and listed once in README.md")
