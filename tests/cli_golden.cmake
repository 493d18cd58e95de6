# Runs `CLI ARGS...` and compares its stdout, byte for byte, with GOLDEN.
#
#   cmake -DCLI=<unilocal_cli> -DARGS=<;-list> -DGOLDEN=<file> -DOUT=<file>
#         -P tests/cli_golden.cmake
#
# Fails when the command exits non-zero or its stdout differs from GOLDEN.
execute_process(COMMAND ${CLI} ${ARGS} OUTPUT_FILE ${OUT}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${CLI} ${ARGS} (${OUT}) differs from ${GOLDEN}")
endif()
