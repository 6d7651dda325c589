# Run PROGRAM; fail unless it exits 0 and its stdout equals the file
# GOLDEN byte for byte.
#   cmake -DPROGRAM=<executable> -DGOLDEN=<file> -P check_stdout.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "stdout of ${PROGRAM} differs from ${GOLDEN}; it printed:\n"
            "${actual}")
endif()
