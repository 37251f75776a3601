# One `golden` ctest: runs a gated bench with --json into the build tree,
# validates the envelope with check_bench_schema.py, then gates it against
# its checked-in golden with bench_diff.py. Fails at the first step that
# fails. Registered by xgbe_golden() in bench/CMakeLists.txt as
#
#   cmake -DPYTHON=<python3> -DSCRIPTS=<repo>/scripts -DGOLDEN=<golden.json>
#         -DOUT=<result.json> -DBENCH=<bench> "-DARGS=<arg;arg...>"
#         -P golden_test.cmake

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
file(REMOVE "${OUT}")

execute_process(COMMAND "${BENCH}" ${ARGS} --json "${OUT}"
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench failed (${rc}): ${BENCH} ${ARGS} --json ${OUT}")
endif()
execute_process(COMMAND "${PYTHON}" "${SCRIPTS}/check_bench_schema.py" "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schema check failed (${rc}): ${OUT}")
endif()
execute_process(COMMAND "${PYTHON}" "${SCRIPTS}/bench_diff.py" "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_diff failed (${rc}): ${GOLDEN} vs ${OUT}")
endif()
