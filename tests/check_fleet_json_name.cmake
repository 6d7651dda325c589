# Run sentry_fleet on a scenario file whose name holds a double quote
# and a backslash, then parse the JSON record it writes: it must be
# valid JSON, and its "scenario" value must be that name.
#   cmake -DPROGRAM=<sentry_fleet> -DWORK_DIR=<dir>
#         -P check_fleet_json_name.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(name "we\"ird\\name")
set(scenario "${WORK_DIR}/${name}.scn")
file(WRITE "${scenario}" "spawn mail sensitive\nlock\nunlock 0000\n")
execute_process(COMMAND "${PROGRAM}" --scenario "${scenario}" --devices 1
                        --json "${WORK_DIR}/fleet.json"
                OUTPUT_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ "${WORK_DIR}/fleet.json" record)
string(JSON written ERROR_VARIABLE error GET "${record}" scenario)
if(error)
    message(FATAL_ERROR "${WORK_DIR}/fleet.json is not JSON: ${error}")
endif()
if(NOT written STREQUAL name)
    message(FATAL_ERROR "scenario '${written}', expected '${name}'")
endif()
