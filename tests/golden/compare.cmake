# Runs one bench invocation and compares its stdout, byte for byte, with a
# checked-in golden file. Used as `cmake -P` from the golden_* ctests:
#
#   -DBENCH=<binary>            the bench executable
#   -DARGS=<flags>              its flags, space separated
#   -DGOLDEN=<file>             expected stdout
#   -DOUTPUT=<file>             optional: a JSON file the run writes (its
#   -DOUTPUT_GOLDEN=<file>      --json or --metrics report), compared with
#                               OUTPUT_GOLDEN after it parses as JSON
#   -DERR_GOLDEN=<file>         optional: expected stderr
#   -DDROP=<regex>              optional: every match is removed from both
#                               sides of both compares first. Only
#                               wall-clock values and host facts are
#                               dropped. A literal `\n` in the regex stands
#                               for a newline, so a mask can end a line.
#
# Golden files are raw captures of a run, so they stay valid JSON and show
# real numbers; the masks make the compare ignore what the host decides.
# On a mismatch the raw actual text is left next to the run as
# <golden name>.actual, so a deliberate output change is reviewed with
# `diff` and adopted with `cp`.
cmake_minimum_required(VERSION 3.20)

foreach(required BENCH GOLDEN)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "compare.cmake: -D${required}=... is required")
  endif()
endforeach()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${exit_code}:\n${stderr_text}")
endif()

string(REPLACE "\\n" "\n" drop "${DROP}")
function(masked text out_var)
  if(NOT drop STREQUAL "")
    string(REGEX REPLACE "${drop}" "" text "${text}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

set(mismatches "")
function(expect_same text golden_file)
  file(READ "${golden_file}" expected)
  masked("${text}" actual_masked)
  masked("${expected}" expected_masked)
  if(NOT actual_masked STREQUAL expected_masked)
    get_filename_component(name "${golden_file}" NAME)
    file(WRITE "${name}.actual" "${text}")
    set(mismatches "${mismatches}\n  ${golden_file}\n    (actual: ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)"
        PARENT_SCOPE)
  endif()
endfunction()

expect_same("${actual}" "${GOLDEN}")
if(DEFINED ERR_GOLDEN)
  expect_same("${stderr_text}" "${ERR_GOLDEN}")
endif()
if(DEFINED OUTPUT)
  file(READ "${OUTPUT}" output_text)
  string(JSON ignored ERROR_VARIABLE json_error TYPE "${output_text}")
  if(json_error)
    message(FATAL_ERROR "${OUTPUT} is not valid JSON: ${json_error}")
  endif()
  expect_same("${output_text}" "${OUTPUT_GOLDEN}")
endif()
if(NOT mismatches STREQUAL "")
  message(FATAL_ERROR "output differs from the golden file(s):${mismatches}")
endif()
