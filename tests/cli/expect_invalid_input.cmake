# Runs one srsimc command line that carries a bad value and checks
# that it ends in a structured input error: exit status 2 (the
# FatalError path) with "invalid input" on stderr. An abort, a crash
# or a misclassified error fails the check.
#
#   cmake -DSRSIMC=<path> -DARGS="compile|--tfg|...|--period|nan" \
#         -P expect_invalid_input.cmake
string(REPLACE "|" ";" ARGS "${ARGS}")
execute_process(
    COMMAND ${SRSIMC} ${ARGS}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
if(NOT status STREQUAL "2")
    message(FATAL_ERROR
        "CLI-CHECK-FAILED: expected exit status 2, got '${status}'\n"
        "stderr: ${err}")
endif()
if(NOT err MATCHES "invalid input")
    message(FATAL_ERROR
        "CLI-CHECK-FAILED: no 'invalid input' error\nstderr: ${err}")
endif()
message(STATUS "${err}")
