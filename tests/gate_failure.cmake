# Runs one bench with a gate it cannot pass and checks the failure path of
# its report: exit code 1, a `GATE FAILED:` line on stderr, and a JSON
# report with "gates_passed": false whose "failures" list names the gate.
# Used as `cmake -P` from the bench_gate_failure ctest:
#
#   -DBENCH=<binary>   the bench executable
#   -DARGS=<flags>     its flags, space separated
#   -DOUTPUT=<file>    the JSON report the run writes
#   -DFAILURE=<regex>  the failure message the gate must report
cmake_minimum_required(VERSION 3.20)

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  OUTPUT_QUIET
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 1)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${exit_code}, expected 1:\n${stderr_text}")
endif()
if(NOT stderr_text MATCHES "GATE FAILED: ${FAILURE}")
  message(FATAL_ERROR "no `GATE FAILED: ${FAILURE}` line on stderr:\n${stderr_text}")
endif()

file(READ "${OUTPUT}" report)
string(JSON passed ERROR_VARIABLE json_error GET "${report}" gates_passed)
if(json_error OR NOT passed STREQUAL "OFF")
  message(FATAL_ERROR "${OUTPUT}: gates_passed is not false (${json_error}):\n${report}")
endif()
string(JSON count ERROR_VARIABLE json_error LENGTH "${report}" failures)
if(json_error)
  message(FATAL_ERROR "${OUTPUT}: no failures list (${json_error}):\n${report}")
endif()
set(listed FALSE)
set(i 0)
while(i LESS count)
  string(JSON failure GET "${report}" failures ${i})
  if(failure MATCHES "${FAILURE}")
    set(listed TRUE)
  endif()
  math(EXPR i "${i} + 1")
endwhile()
if(NOT listed)
  message(FATAL_ERROR "${OUTPUT}: the failures list does not name `${FAILURE}`:\n${report}")
endif()
