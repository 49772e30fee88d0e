# cli_policy_check.cmake — asserts that an rrp_cli command with a malformed
# --policy exits 2 with the policy-vocabulary diagnostic and never touches
# the model cache (the name is checked before any model is provisioned).
#
#   cmake -DRRP_CLI=<rrp_cli> -DCACHE=<scratch dir> -DCLI_ARGS="<args>"
#         -DEXPECT=<regex> -P cli_policy_check.cmake
file(REMOVE_RECURSE "${CACHE}")
separate_arguments(args UNIX_COMMAND "${CLI_ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env RRP_CACHE_DIR=${CACHE} ${RRP_CLI} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rrp_cli ${CLI_ARGS}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "rrp_cli ${CLI_ARGS}: diagnostic does not match "
                      "'${EXPECT}':\n${err}")
endif()
if(EXISTS "${CACHE}")
  message(FATAL_ERROR "rrp_cli ${CLI_ARGS}: touched the model cache ${CACHE}")
endif()
