# Run one bench binary and compare its stdout byte for byte with a
# checked-in golden copy. Called by the bench_stdout_* tests as
#
#   cmake -DBENCH=<binary> -DARGS=<args> -DGOLDEN=<file>
#         -DACTUAL=<file> -P bench_stdout.cmake
#
# Fails on a non-zero exit or on any difference; the output is then
# left in ACTUAL so `diff GOLDEN ACTUAL` shows what moved.
execute_process(COMMAND "${BENCH}" ${ARGS}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
file(READ "${GOLDEN}" golden)
string(JOIN " " command "${BENCH}" ${ARGS})
if(NOT rc EQUAL 0)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR "${command} exited with ${rc}; "
        "its stdout is in ${ACTUAL}")
endif()
if(NOT actual STREQUAL golden)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR "${command}: stdout differs from "
        "${GOLDEN}; diff it against ${ACTUAL}")
endif()
