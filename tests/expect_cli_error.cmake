# Runs CMD (a list: program then arguments) and fails unless it exits with
# a nonzero status (a crash does not count) after printing exactly one
# "error: " line on stderr.
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
  message(FATAL_ERROR "expected a nonzero exit status, got '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^error: [^\n]*\n$")
  message(FATAL_ERROR "expected one 'error:' line on stderr, got:\n${err}")
endif()
