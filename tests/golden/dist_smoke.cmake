# End-to-end distributed-runner smoke through the real `cr` binary (driven
# by the dist_smoke CTest entry; see tests/test_dist.cpp for the in-process
# unit/integration coverage):
#
#   1. cold `cr suite run --cache` populates the CellCache;
#   2. a warm run into a FRESH output dir must be 100% cache hits and
#      byte-identical (determinism rule 9);
#   3. `--shard=1/2` and `--shard=2/2` runs fill a third dir, `cr suite
#      merge` unions their manifests, and the shard CSVs byte-match the
#      suite-run CSVs;
#   4. `cr cache stats` still sees a clean cache.
#
# Expects -DCR=<cr binary> -DMANIFEST=<suites/dist_smoke.json> -DOUT=<dir>.

file(REMOVE_RECURSE ${OUT})

function(run_cr expect_rc out_var)
  execute_process(COMMAND ${CR} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "cr ${ARGN} exited ${rc} (expected ${expect_rc}):\n${log}")
  endif()
  set(${out_var} "${log}" PARENT_SCOPE)
endfunction()

run_cr(0 cold_log suite run ${MANIFEST} --out=${OUT}/cold --cache=${OUT}/cache --threads=2)
if(NOT cold_log MATCHES "2 ran, 0 cached, 0 cache hits, 0 failed")
  message(FATAL_ERROR "cold run was not a full compute:\n${cold_log}")
endif()

run_cr(0 warm_log suite run ${MANIFEST} --out=${OUT}/warm --cache=${OUT}/cache --threads=2)
if(NOT warm_log MATCHES "0 ran, 0 cached, 2 cache hits, 0 failed")
  message(FATAL_ERROR "warm run into a fresh dir was not 100% cache hits:\n${warm_log}")
endif()

file(GLOB cold_csvs RELATIVE ${OUT}/cold ${OUT}/cold/*.csv)
list(LENGTH cold_csvs n_csvs)
if(NOT n_csvs EQUAL 2)
  message(FATAL_ERROR "expected 2 CSVs in the cold run, found ${n_csvs}")
endif()
foreach(csv IN LISTS cold_csvs)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${OUT}/cold/${csv} ${OUT}/warm/${csv} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "rule 9 violation: cache hit for ${csv} differs from recomputation")
  endif()
endforeach()

# Shards compute WITHOUT the cache so each really executes its cell rather
# than restoring it.
foreach(shard 1 2)
  run_cr(0 shard_log suite run ${MANIFEST} --out=${OUT}/shards --shard=${shard}/2 --threads=2)
  if(NOT shard_log MATCHES "1 ran, 0 cached, 0 cache hits, 0 failed")
    message(FATAL_ERROR "shard ${shard}/2 did not run exactly its one cell:\n${shard_log}")
  endif()
endforeach()

run_cr(0 merge_log suite merge ${OUT}/shards/manifest.1of2.json ${OUT}/shards/manifest.2of2.json)
if(NOT EXISTS ${OUT}/shards/manifest.json)
  message(FATAL_ERROR "merge did not write ${OUT}/shards/manifest.json:\n${merge_log}")
endif()

foreach(csv IN LISTS cold_csvs)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${OUT}/cold/${csv} ${OUT}/shards/${csv} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "shard output for ${csv} differs from the suite run")
  endif()
endforeach()

run_cr(0 stats_log cache stats ${OUT}/cache)
if(NOT stats_log MATCHES "corrupt: *0")
  message(FATAL_ERROR "cache reports corruption after the round-trip:\n${stats_log}")
endif()
