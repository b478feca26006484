# Simulation output pin.  Hashes what the simulator prints — standard
# output, standard error and the exit code — for one campaign per shipped
# workload under four campaign modes (the per-run CSV is hashed too), and
# for rse_run on every .s file under tests/ under six run settings, and
# compares each hash with the committed table.  The first row that differs
# fails the test, by name.  A host-side speedup must leave every row as it
# is.
#
#   cmake -DRSE_CAMPAIGN=<rse_campaign> -DRSE_RUN=<rse_run> -DPROGRAMS=<tests dir>
#         -DPIN=<table> -DWORK=<work dir> -P sim_pin.cmake
#
# -DUPDATE=1 rewrites the table from the current output instead of checking.

foreach(var RSE_CAMPAIGN RSE_RUN PROGRAMS PIN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_pin.cmake needs -D${var}=...")
  endif()
endforeach()

# The workload table, as rse_campaign's usage text prints it.
execute_process(COMMAND "${RSE_CAMPAIGN}" --no-such-flag
                ERROR_VARIABLE usage OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT usage MATCHES "workloads:([^\n]*)")
  message(FATAL_ERROR "rse_campaign printed no workload list (exit ${rc})")
endif()
string(STRIP "${CMAKE_MATCH_1}" names)
string(REPLACE " " ";" workloads "${names}")

set(campaign_modes "default" "--static-cfc --static-ddt" "--fast-forward" "--dme")
set(run_settings "plain" "--stats" "--instrument --icm --cfc --ddt --stats" "--trace 40"
                 "--fast" "--dme")
file(GLOB_RECURSE programs RELATIVE "${PROGRAMS}" "${PROGRAMS}/*.s")
list(SORT programs)

set(csv "${WORK}/sim_pin_runs.csv")

# Row labels ("campaign kmeans --dme", "run isa/fixtures/div_overflow.s
# --stats") and their arguments, in table order.  A campaign row also hashes
# the CSV its --runs-csv wrote.
set(labels "")
set(commands "")
foreach(workload IN LISTS workloads)
  foreach(mode IN LISTS campaign_modes)
    list(APPEND labels "campaign ${workload} ${mode}")
    set(flags "")
    if(NOT mode STREQUAL "default")
      string(REPLACE " " "|" flags "|${mode}")
    endif()
    list(APPEND commands "${RSE_CAMPAIGN}|--workload|${workload}|--runs|24|--seed|1|--jobs|4|--hang-factor|2|--digest|--runs-csv|${csv}${flags}")
  endforeach()
endforeach()
foreach(program IN LISTS programs)
  foreach(setting IN LISTS run_settings)
    list(APPEND labels "run ${program} ${setting}")
    set(flags "")
    if(NOT setting STREQUAL "plain")
      string(REPLACE " " "|" flags "|${setting}")
    endif()
    list(APPEND commands "${RSE_RUN}|${PROGRAMS}/${program}${flags}")
  endforeach()
endforeach()

set(actual "")
list(LENGTH labels count)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  list(GET labels ${i} label)
  list(GET commands ${i} packed)
  string(REPLACE "|" ";" command "${packed}")
  file(REMOVE "${csv}")
  execute_process(COMMAND ${command}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  set(runs "")
  if(EXISTS "${csv}")
    file(READ "${csv}" runs)
  endif()
  string(SHA256 hash "exit ${rc}\nstdout\n${out}\nstderr\n${err}\ncsv\n${runs}")
  string(SUBSTRING "${hash}" 0 16 hash)
  list(APPEND actual "${hash} ${label}")
endforeach()
file(REMOVE "${csv}")

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
    message(FATAL_ERROR "simulation output differs at row '${label}':\n"
                        "  pinned: ${expected}\n  actual: ${row}")
  endif()
endforeach()
list(LENGTH pinned have)
if(NOT have EQUAL count)
  list(GET pinned ${count} extra)
  message(FATAL_ERROR "pinned row '${extra}' names no current command")
endif()
message(STATUS "${count} rows match the pin")
