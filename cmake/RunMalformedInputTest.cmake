# Malformed-input driver: run ${PROGRAM} with the space-separated ${ARGS},
# under the VAR=value environment setting ${ENV} when one is given, and
# require exit code 2 with nothing on stdout, i.e. the binary refused the
# command line or environment instead of running with a garbled value.
if(NOT PROGRAM)
  message(FATAL_ERROR "PROGRAM not set")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${PROGRAM} ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 60
)

if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${ENV} ${PROGRAM} ${ARGS} exited with ${rc}, "
                      "expected 2\nstdout:\n${out}\nstderr:\n${err}")
endif()

string(STRIP "${out}" out_stripped)
if(NOT out_stripped STREQUAL "")
  message(FATAL_ERROR "${ENV} ${PROGRAM} ${ARGS} printed to stdout:\n${out}")
endif()

message("${err}")
