# Golden-report check for one simulated scenario: runs the scenario smoke
# workload with --report-json and requires the virtual-clock ReportJson to be
# byte-identical to the committed file. CMakeLists.txt registers one
# scenario_<name> test per tests/golden/<name>.json:
#
#   cmake -DRUNNER=<run_scenario> -DSCENARIO=<file.scenario> \
#         -DGOLDEN=<tests/golden/name.json> -DOUT=<report.json> \
#         [-DTRACED=ON] [-DPYTHON=<python3>] -P check_report.cmake
#
# With TRACED on, the run reads a copy of the scenario written next to OUT
# with `trace.enabled = true` appended, and must still match the same golden
# file: turning tracing on may not change a simulated run.
#
# On a mismatch, with PYTHON set, tools/report_diff.py lists every JSON leaf
# whose value moved (golden -> this run). The byte comparison alone decides
# pass or fail.
#
# After an intended behaviour change, regenerate the golden file with
#   run_scenario examples/scenarios/<name>.scenario --ops 1000 \
#       --report-json tests/golden/<name>.json
set(run_file ${SCENARIO})
if(TRACED)
  set(run_file ${OUT}.scenario)
  file(READ ${SCENARIO} text)
  file(WRITE ${run_file} "${text}\ntrace.enabled = true\n")
endif()
execute_process(COMMAND ${RUNNER} ${run_file} --ops 1000 --report-json ${OUT}
                RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "run_scenario ${run_file} failed (${run_rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  if(PYTHON)
    execute_process(COMMAND ${PYTHON} ${CMAKE_CURRENT_LIST_DIR}/../../tools/report_diff.py
                            ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR "ReportJson differs from ${GOLDEN}; this run wrote ${OUT}")
endif()
