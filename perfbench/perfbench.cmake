# wrt_perfbench: the end-to-end + per-layer benchmark (see README.md here).
# Included at the end of the repository's root CMakeLists.txt by
# inject.cmake; run.py builds it with
#   cmake -S . -B .bench_build/cmake \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/inject.cmake
#   cmake --build .bench_build/cmake --target wrt_perfbench
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  OUTPUT_VARIABLE PERFBENCH_GIT_REV
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT PERFBENCH_GIT_REV)
  set(PERFBENCH_GIT_REV "unknown")
endif()

add_executable(wrt_perfbench EXCLUDE_FROM_ALL
  ${PERFBENCH_DIR}/src/main.cpp
  ${PERFBENCH_DIR}/src/harness.cpp
  ${PERFBENCH_DIR}/src/probes.cpp
  ${PERFBENCH_DIR}/src/ring_workloads.cpp
  ${PERFBENCH_DIR}/src/federation_workload.cpp)
target_include_directories(wrt_perfbench PRIVATE ${CMAKE_SOURCE_DIR}
                                                 ${CMAKE_SOURCE_DIR}/src)
target_compile_definitions(wrt_perfbench PRIVATE
  PERFBENCH_GIT_REV="${PERFBENCH_GIT_REV}"
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(wrt_perfbench PRIVATE
  wrt_app wrt_wrtring wrt_diffserv wrt_analysis wrt_traffic wrt_ring
  wrt_cdma wrt_phy wrt_fault wrt_sim wrt_util wrt_check Threads::Threads
  wrt_warnings)
