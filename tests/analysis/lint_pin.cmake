# Analyzer output pin.  Hashes the output of `rse_lint --json --cfg` for
# every workload rse_lint lists, under six analysis settings, and for every
# .s fixture beside this script at default settings, and compares each hash
# with the committed table.  The first row that differs fails the test, by
# name.
#
#   cmake -DRSE_LINT=<rse_lint> -DFIXTURES=<dir> -DPIN=<table> -P lint_pin.cmake
#
# -DUPDATE=1 rewrites the table from the current output instead of checking.

foreach(var RSE_LINT FIXTURES PIN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lint_pin.cmake needs -D${var}=...")
  endif()
endforeach()

# The workload table, as rse_lint's usage text prints it.
execute_process(COMMAND "${RSE_LINT}" ERROR_VARIABLE usage OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT usage MATCHES "workloads:([^\n]*)")
  message(FATAL_ERROR "rse_lint printed no workload list (exit ${rc})")
endif()
string(STRIP "${CMAKE_MATCH_1}" names)
string(REPLACE " " ";" workloads "${names}")

set(settings "default" "--flat-footprint" "--context-depth 0" "--context-depth 2"
             "--no-field-sensitive" "--sp-depth 0")
file(GLOB fixtures "${FIXTURES}/*.s")
list(SORT fixtures)

# Row labels ("workload kmeans --sp-depth 0", "fixture arg_ptr.s default")
# and their rse_lint arguments, in table order.
set(labels "")
set(arglists "")
foreach(workload IN LISTS workloads)
  foreach(setting IN LISTS settings)
    list(APPEND labels "workload ${workload} ${setting}")
    set(flags "")
    if(NOT setting STREQUAL "default")
      string(REPLACE " " "|" flags "|${setting}")
    endif()
    list(APPEND arglists "--workload|${workload}${flags}")
  endforeach()
endforeach()
foreach(fixture IN LISTS fixtures)
  get_filename_component(name "${fixture}" NAME)
  list(APPEND labels "fixture ${name} default")
  list(APPEND arglists "${fixture}")
endforeach()

set(actual "")
list(LENGTH labels count)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  list(GET labels ${i} label)
  list(GET arglists ${i} packed)
  string(REPLACE "|" ";" args "${packed}")
  execute_process(COMMAND "${RSE_LINT}" ${args} --json --cfg
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${label}: rse_lint exited ${rc}: ${err}")
  endif()
  string(SHA256 hash "${out}")
  string(SUBSTRING "${hash}" 0 16 hash)
  list(APPEND actual "${hash} ${label}")
endforeach()

if(UPDATE)
  list(JOIN actual "\n" text)
  file(WRITE "${PIN}" "${text}\n")
  message(STATUS "wrote ${count} rows to ${PIN}")
  return()
endif()

file(STRINGS "${PIN}" pinned)
foreach(i RANGE ${last})
  list(GET actual ${i} row)
  string(SUBSTRING "${row}" 17 -1 label)
  list(LENGTH pinned have)
  if(i GREATER_EQUAL have)
    message(FATAL_ERROR "no pinned hash for row '${label}'")
  endif()
  list(GET pinned ${i} expected)
  if(NOT row STREQUAL expected)
    message(FATAL_ERROR "analyzer output differs at row '${label}':\n"
                        "  pinned: ${expected}\n  actual: ${row}")
  endif()
endforeach()
list(LENGTH pinned have)
if(NOT have EQUAL count)
  list(GET pinned ${count} extra)
  message(FATAL_ERROR "pinned row '${extra}' names no current workload or fixture")
endif()
message(STATUS "${count} rows match the pin")
