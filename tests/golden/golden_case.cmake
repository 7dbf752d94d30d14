# Runs one golden case and checks the SHA-256 of everything it printed or
# wrote against tests/golden/digests.txt.
#
#   cmake -DCASE=<name> -DBENCH=<executable> "-DARGS=<space-separated args>"
#         -DWORKDIR=<scratch dir> -DDIGESTS=<digests.txt>
#         [-DEXPECT=<case>] -P golden_case.cmake
#
# The bench runs in a fresh WORKDIR, so relative --json/--trace paths in ARGS
# land there; stdout and every file left in WORKDIR are hashed, in name
# order. EXPECT names the case whose digest lines must match (default: CASE
# itself); a --jobs 1 twin names its --jobs 4 case. With -DOUT=<file> the
# digest lines are written there instead of being checked (regenerate.sh
# uses that; nothing else writes digests).
#
# The runner's "# runner: ... ms" wall-time line is the only output that
# differs between runs, so it is stripped from stdout before hashing.

foreach(var CASE BENCH WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_case.cmake: -D${var}= is required")
  endif()
endforeach()

if(NOT DEFINED EXPECT OR EXPECT STREQUAL "")
  set(EXPECT "${CASE}")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${argv}
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CASE}: ${BENCH} ${ARGS} exited with ${rc}\n${err}")
endif()

string(REGEX REPLACE "# runner: [^\n]* ms\n" "" out "${out}")
string(SHA256 sha "${out}")
set(actual "${EXPECT} stdout ${sha}\n")
file(GLOB files RELATIVE "${WORKDIR}" "${WORKDIR}/*")
list(SORT files)
foreach(f IN LISTS files)
  file(SHA256 "${WORKDIR}/${f}" sha)
  string(APPEND actual "${EXPECT} ${f} ${sha}\n")
endforeach()

if(DEFINED OUT)
  file(WRITE "${OUT}" "${actual}")
  file(REMOVE_RECURSE "${WORKDIR}")
  return()
endif()

file(STRINGS "${DIGESTS}" lines REGEX "^${EXPECT} ")
set(expected "")
foreach(line IN LISTS lines)
  string(APPEND expected "${line}\n")
endforeach()
if(expected STREQUAL "")
  message(FATAL_ERROR "${CASE}: no digests for ${EXPECT} in ${DIGESTS}; "
                      "run tests/golden/regenerate.sh")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${CASE}: outputs differ from the golden digests "
                      "(outputs kept in ${WORKDIR})\n"
                      "expected:\n${expected}actual:\n${actual}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
