# Runs one bench invocation and compares its stdout, byte for byte, with a
# checked-in golden file. Used as `cmake -P` from the golden_* ctests:
#
#   -DBENCH=<binary>            the bench executable
#   -DARGS=<flags>              its flags, space separated
#   -DGOLDEN=<file>             expected stdout
#   -DDROP=<regex>              optional: stdout lines matching this are
#                               removed before the compare (wall-clock lines)
#   -DOUTPUT=<file>             optional: a file the run writes (e.g. its
#   -DOUTPUT_GOLDEN=<file>      --metrics JSON), compared with OUTPUT_GOLDEN
#
# On a mismatch the actual text is left next to the run as
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
if(DEFINED DROP AND NOT DROP STREQUAL "")
  string(REGEX REPLACE "[^\n]*${DROP}[^\n]*\n" "" actual "${actual}")
endif()

set(mismatches "")
function(expect_same text golden_file)
  file(READ "${golden_file}" expected)
  if(NOT text STREQUAL expected)
    get_filename_component(name "${golden_file}" NAME)
    file(WRITE "${name}.actual" "${text}")
    set(mismatches "${mismatches}\n  ${golden_file}\n    (actual: ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)"
        PARENT_SCOPE)
  endif()
endfunction()

expect_same("${actual}" "${GOLDEN}")
if(DEFINED OUTPUT)
  file(READ "${OUTPUT}" output_text)
  expect_same("${output_text}" "${OUTPUT_GOLDEN}")
endif()
if(NOT mismatches STREQUAL "")
  message(FATAL_ERROR "output differs from the golden file(s):${mismatches}")
endif()
