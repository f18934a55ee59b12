# Runs TOOL with the space-separated ARGS and fails unless it exits with
# status EXPECT, its stderr matches MATCH when that is set, and it does
# not match NOMATCH when that is set. A crash is a failure too, which
# WILL_FAIL could not tell from an error exit.
#   cmake -DTOOL=<exe> "-DARGS=<args>" -DEXPECT=<status> [-DMATCH=<regex>]
#         [-DNOMATCH=<regex>] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want ${EXPECT}\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match '${MATCH}':\n${err}")
endif()
if(DEFINED NOMATCH AND err MATCHES "${NOMATCH}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr matches '${NOMATCH}':\n${err}")
endif()
