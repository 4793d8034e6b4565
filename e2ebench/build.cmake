# Build file of the end-to-end benchmark. run.py configures the repository's
# root CMakeLists.txt with -DCMAKE_PROJECT_INCLUDE=<this file>; the benchmark
# target is then defined only after the root project has been processed, so
# it links the ns_* libraries exactly as the root build compiles them (same
# build type, -march, NS_CHECK and NS_SIMD) instead of a copy of those flags.
include_guard(GLOBAL)
set(NS_E2EBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(ns_e2ebench_add_target)
  add_executable(ns_e2ebench
    "${NS_E2EBENCH_DIR}/main.cpp"
    "${NS_E2EBENCH_DIR}/checks.cpp"
    "${NS_E2EBENCH_DIR}/select.cpp"
    "${NS_E2EBENCH_DIR}/label_batch.cpp")
  target_link_libraries(ns_e2ebench PRIVATE
    ns_core ns_nn ns_graph ns_solver ns_policy ns_gen ns_cnf ns_runtime)

  # Build identity for the meta block the benchmark prints.
  get_directory_property(opts DIRECTORY "${CMAKE_SOURCE_DIR}" COMPILE_OPTIONS)
  string(TOUPPER "${CMAKE_BUILD_TYPE}" type)
  string(JOIN " " flags ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${type}} ${opts})
  target_compile_definitions(ns_e2ebench PRIVATE
    NS_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    NS_E2E_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    NS_E2E_FLAGS="${flags}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL ns_e2ebench_add_target)
