# cli_policy_check.cmake — asserts that a command with a malformed flag (a
# --policy outside the vocabulary, a number with trailing garbage, a
# switch other than 0|1, a flag with no value) exits 2 with the expected
# diagnostic and never touches the model cache (flags are checked before
# any model is provisioned).  PROGRAM is rrp_cli or a bench binary.
#
#   cmake -DPROGRAM=<binary> -DCACHE=<scratch dir> -DCLI_ARGS="<args>"
#         -DEXPECT=<regex> -P cli_policy_check.cmake
file(REMOVE_RECURSE "${CACHE}")
get_filename_component(name "${PROGRAM}" NAME)
separate_arguments(args UNIX_COMMAND "${CLI_ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env RRP_CACHE_DIR=${CACHE} ${PROGRAM} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${name} ${CLI_ARGS}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${name} ${CLI_ARGS}: diagnostic does not match "
                      "'${EXPECT}':\n${err}")
endif()
if(EXISTS "${CACHE}")
  message(FATAL_ERROR "${name} ${CLI_ARGS}: touched the model cache ${CACHE}")
endif()
