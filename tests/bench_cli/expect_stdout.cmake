# Runs a bench binary at its defaults and checks that it succeeds and
# prints a stdout matching EXPECT: how a bench's printed verdict is
# pinned to the table it is printed from.
#
#   cmake -DBIN=<bench binary> "-DEXPECT=<regex>" -P expect_stdout.cmake
execute_process(
  COMMAND "${BIN}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BIN}: exit status '${result}', expected 0\n"
                      "stderr:\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN}: stdout does not match '${EXPECT}':\n"
                      "${out}")
endif()
