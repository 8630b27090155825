# Runs a bench binary with ARGS and checks that it refuses them the way
# every bench refuses bad usage: exit status 2, nothing on stdout, and a
# stderr matching EXPECT.
#
#   cmake -DBIN=<bench binary> "-DARGS=<space-separated flags>" \
#         "-DEXPECT=<regex>" -P expect_exit2.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status '${result}', expected 2\n"
                      "stderr:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARGS}: printed to stdout before exiting:\n"
                      "${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${EXPECT}':\n"
                      "${err}")
endif()
