# Runs CMD and fails unless it exits 0 and its stdout equals the file
# GOLDEN byte for byte; on a mismatch the actual output is written to
# ACTUAL for diffing. Usage:
#   cmake -DCMD=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P expect_stdout.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "stdout of ${CMD} differs from ${GOLDEN}; actual output in ${ACTUAL}")
endif()
