# Runs PROGRAM with ARGS (a space-separated string) and passes only if it
# exits with EXPECT_EXIT and its stderr matches the EXPECT_STDERR regex.
# The exit code is what separates a clean usage error (2) from a crash or
# an abort, which a plain output match cannot tell apart.
#
#   cmake -DPROGRAM=path -DARGS="--flag value" -DEXPECT_EXIT=2
#         -DEXPECT_STDERR=regex -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${code}', expected ${EXPECT_EXIT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
