# Runs one `tsb` command line and checks its exit code and output.
#
#   cmake -DTSB=<binary> "-DARGS=<args, space separated>" -DEXPECT_RC=<code>
#         -DEXPECT_OUT=<regex matched against stdout+stderr> -P cli_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TSB} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "tsb ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "tsb ${ARGS}: output does not match '${EXPECT_OUT}'\n${out}")
endif()
