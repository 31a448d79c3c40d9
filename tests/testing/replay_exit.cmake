# Replays a fuzz repro and fails unless fela-fuzz rejects it as bad input:
# exit code 2 and a message matching REGEX. ctest's PASS_REGULAR_EXPRESSION
# alone would ignore the exit code, and an abort (134) must not pass.
#
#   cmake -DFUZZ=<fela-fuzz> -DREPRO=<file.json> -DREGEX=<pattern>
#         -P replay_exit.cmake
execute_process(COMMAND ${FUZZ} --replay ${REPRO}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "fela-fuzz --replay exited '${rc}', expected 2\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "${REGEX}")
  message(FATAL_ERROR "stderr does not match '${REGEX}':\n${err}")
endif()
