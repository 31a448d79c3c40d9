# Runs an observed timeline through the offline detokenizer and fails
# unless both of fela-detok's modes read it: dump_timeline writes the
# Chrome trace JSON and its FELATRB1 transcript, fela-detok renders the
# transcript as text and with --chrome, both exit 0, and the --chrome
# output equals the JSON the run wrote, byte for byte.
#
#   cmake -DDUMP=<dump_timeline> -DDETOK=<fela-detok> -DTOKENS=<tokens.csv>
#         -DOUT=<dir> -P detok_round_trip.cmake
set(json ${OUT}/detok_round_trip.json)
execute_process(COMMAND ${DUMP} ${json}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "dump_timeline exited '${rc}'\n${err}")
endif()
foreach(mode chrome text)
  set(flags --tokens=${TOKENS})
  if(mode STREQUAL "chrome")
    list(APPEND flags --chrome)
  endif()
  execute_process(COMMAND ${DETOK} ${flags} ${json}.bin
                  RESULT_VARIABLE rc OUTPUT_FILE ${json}.${mode}
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "fela-detok (${mode}) exited '${rc}'\n${err}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${json}.chrome
                        ${json}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "fela-detok --chrome output differs from ${json}")
endif()
