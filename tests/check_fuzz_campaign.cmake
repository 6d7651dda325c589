# Run the pinned fuzz campaign (seed SEED, 200 trials of ~30 steps on 4
# jobs) in a fresh WORK_DIR and compare it with GOLDEN_DIR: the exit
# status must be EXPECT_STATUS, stdout must equal GOLDEN_DIR/stdout.out
# byte for byte, and the reproducers written must be exactly the
# FUZZ_repro_*.fuzz files in GOLDEN_DIR, byte for byte. Then replay each
# reproducer with --schedule: its recorded verdict must reproduce, and
# the replay's "error:" line must be the file's "# error:" comment.
#   cmake -DPROGRAM=<sentry_fuzz> -DSEED=<n> -DEXPECT_STATUS=<n>
#         -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P check_fuzz_campaign.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${PROGRAM}" --seed ${SEED} --trials 200 --jobs 4
                        --steps 30
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL EXPECT_STATUS)
    message(FATAL_ERROR "${PROGRAM} exited with status ${status}, "
                        "expected ${EXPECT_STATUS}")
endif()
file(READ "${GOLDEN_DIR}/stdout.out" expected)
if(NOT actual STREQUAL expected)
    file(WRITE "${WORK_DIR}/stdout.out" "${actual}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN_DIR}/stdout.out; "
                        "it is in ${WORK_DIR}/stdout.out")
endif()
file(GLOB want RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/FUZZ_repro_*.fuzz")
file(GLOB got RELATIVE "${WORK_DIR}" "${WORK_DIR}/FUZZ_repro_*.fuzz")
list(SORT want)
list(SORT got)
if(NOT want STREQUAL got)
    message(FATAL_ERROR "reproducers written: '${got}', expected '${want}'")
endif()
foreach(name IN LISTS want)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${GOLDEN_DIR}/${name}" "${WORK_DIR}/${name}"
                    RESULT_VARIABLE differ)
    if(differ)
        message(FATAL_ERROR "${WORK_DIR}/${name} differs from the golden")
    endif()
endforeach()

foreach(name IN LISTS got)
    execute_process(COMMAND "${PROGRAM}" --schedule "${WORK_DIR}/${name}"
                    OUTPUT_VARIABLE replay RESULT_VARIABLE status)
    if(NOT status EQUAL 0 OR
       NOT replay MATCHES "\n  recorded verdict [A-Z]+: reproduced\n")
        message(FATAL_ERROR "replaying ${WORK_DIR}/${name} did not "
                            "reproduce its recorded verdict:\n${replay}")
    endif()
    file(READ "${WORK_DIR}/${name}" text)
    set(recorded "")
    if(text MATCHES "\n# error: ([^\n]*)\n")
        set(recorded "${CMAKE_MATCH_1}")
    endif()
    set(replayed "")
    if(replay MATCHES "\n  error: ([^\n]*)\n")
        set(replayed "${CMAKE_MATCH_1}")
    endif()
    if(NOT recorded STREQUAL replayed)
        message(FATAL_ERROR "${WORK_DIR}/${name} records the error "
                            "'${recorded}', its replay reports "
                            "'${replayed}'")
    endif()
endforeach()
