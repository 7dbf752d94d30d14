# Runs a bench with a flag it does not read and checks that it is rejected
# before any trial runs: exit code 2, nothing on stdout, and exactly one
# line on stderr that matches EXPECT.
#
#   cmake -DBENCH=<executable> "-DARGS=<space-separated args>"
#         "-DEXPECT=<regex>" -P reject_case.cmake

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${argv}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit code ${rc}, want 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BENCH} ${ARGS}: stdout is not empty:\n${out}")
endif()
if(NOT err MATCHES "^[^\n]*\n$" OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr is not one line matching "
                      "'${EXPECT}':\n${err}")
endif()
