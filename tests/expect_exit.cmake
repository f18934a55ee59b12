# Runs TOOL with the space-separated ARGS and fails unless it exits with
# status EXPECT and, when MATCH is set, its stderr matches that regex. A
# crash is a failure too, which WILL_FAIL could not tell from an error
# exit.
#   cmake -DTOOL=<exe> "-DARGS=<args>" -DEXPECT=<status> [-DMATCH=<regex>]
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want ${EXPECT}\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match '${MATCH}':\n${err}")
endif()
