# Hooked into the repository's own configure through CMAKE_PROJECT_INCLUDE
# (see run.py).  Deferred to the end of the root CMakeLists.txt so that
# perfbench.cmake sees every wrt_* library and the root's build type,
# options and compile definitions: the benchmark measures the simulator as
# the repository builds it.
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
  cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
                 CALL include ${PERFBENCH_DIR}/perfbench.cmake)
endif()
