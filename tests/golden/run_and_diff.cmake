# Golden-CSV regression driver: run a bench with its deterministic quick
# configuration and byte-compare the CSV it writes against the checked-in
# golden file.
#
# Invoked by CTest (see tests/CMakeLists.txt) as
#   cmake -DCR=<cr binary> -DBENCH=<bench name> -DGOLDEN=<golden.csv> -DOUT=<out.csv>
#     -P run_and_diff.cmake
#
# The CSV contains only means of integer-valued samples (exact IEEE
# arithmetic at fixed seeds), so the bytes are reproducible for every
# --threads value and across reruns on the same platform. (The samples do
# route through libm, so an exotic libm may shift them — regenerate on the
# Linux CI platform.) To regenerate after an intentional engine/scenario
# change:
#   ./build/src/cr bench latency --quick --reps=2 --threads=2 --csv=tests/golden/bench_latency_quick.csv
foreach(var CR BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_and_diff.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${CR} bench ${BENCH} --quick --reps=2 --threads=2 --csv=${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "golden run failed: cr bench ${BENCH} exited with ${run_rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "golden CSV mismatch: ${OUT} differs from ${GOLDEN}.\n"
    "If the change is intentional, regenerate with:\n"
    "  ${CR} bench ${BENCH} --quick --reps=2 --threads=2 --csv=${GOLDEN}")
endif()
