# One bench binary per paper artefact (DESIGN.md's per-experiment index).
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains nothing but the bench binaries — the whole
# directory is runnable as `for b in build/bench/*; do $b; done`.
function(rebench_add_bench source)
  get_filename_component(name ${source} NAME_WE)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${source})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    rebench_core rebench_parallel rebench_sim
    rebench_babelstream rebench_hpcg rebench_hpgmg
    benchmark::benchmark)
endfunction()

rebench_add_bench(fig2_babelstream.cpp)
rebench_add_bench(table2_hpcg.cpp)
rebench_add_bench(table3_concretize.cpp)
rebench_add_bench(table4_hpgmg.cpp)
rebench_add_bench(ablation_buildpath.cpp)
rebench_add_bench(ablation_rebuild.cpp)
rebench_add_bench(ablation_postproc.cpp)
rebench_add_bench(ablation_regression.cpp)
rebench_add_bench(scaling_hpgmg.cpp)
rebench_add_bench(ablation_hpcg_mg.cpp)
rebench_add_bench(ablation_hygiene.cpp)
rebench_add_bench(ablation_parallel.cpp)
rebench_add_bench(ablation_profile.cpp)
rebench_add_bench(ablation_history.cpp)
rebench_add_bench(ablation_infer.cpp)
rebench_add_bench(ablation_dataframe.cpp)
target_link_libraries(ablation_dataframe PRIVATE rebench_legacy_rowframe)

# bench/e2e's end-to-end benchmark, compiled against the tier-1 libraries
# so that a src/ API change which breaks it fails `cmake --build`.
# bench/e2e/CMakeLists.txt builds the same sources standalone for
# bench/e2e/run.py.  The binary stays out of build/bench/: run with no
# arguments it measures for about 90 s.
set(REBENCH_E2E_DIR ${CMAKE_SOURCE_DIR}/bench/e2e)
add_executable(e2e_bench
  ${REBENCH_E2E_DIR}/e2e_bench.cpp
  ${REBENCH_E2E_DIR}/inputs.cpp
  ${REBENCH_E2E_DIR}/layer_trace.cpp
  ${REBENCH_E2E_DIR}/report.cpp
  ${REBENCH_E2E_DIR}/sysprobe.cpp
  ${REBENCH_E2E_DIR}/traced_serve.cpp
  ${REBENCH_E2E_DIR}/workloads.cpp)
set_target_properties(e2e_bench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/e2e)
target_link_libraries(e2e_bench PRIVATE
  rebench_core rebench_suite rebench_babelstream rebench_hpcg rebench_hpgmg
  rebench_osu rebench_warnings)
target_compile_definitions(e2e_bench PRIVATE
  REBENCH_E2E_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
  REBENCH_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

find_package(Python3 REQUIRED COMPONENTS Interpreter)
add_test(NAME perf_e2e_smoke
  COMMAND ${Python3_EXECUTABLE} ${REBENCH_E2E_DIR}/smoke.py
          --bench $<TARGET_FILE:e2e_bench>
          --cli $<TARGET_FILE:rebench>
          --benchmark-json ${CMAKE_SOURCE_DIR}/BENCHMARK.json
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/e2e)
set_tests_properties(perf_e2e_smoke PROPERTIES LABELS perf TIMEOUT 120)
