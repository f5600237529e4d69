# Targets of the host-performance benchmark (see README.md). Included by
# attach.cmake at the end of the repository's root CMakeLists.txt.
if(NOT TARGET mcs_serve)
  message(FATAL_ERROR "perfbench/targets.cmake must be included through "
                      "perfbench/attach.cmake (see perfbench/run.py)")
endif()

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

add_library(perfbench_lib STATIC
  ${PERFBENCH_DIR}/src/stats.cpp
  ${PERFBENCH_DIR}/src/spans.cpp
  ${PERFBENCH_DIR}/src/probes.cpp
  ${PERFBENCH_DIR}/src/panel.cpp
  ${PERFBENCH_DIR}/src/client.cpp
  ${PERFBENCH_DIR}/src/workloads.cpp
)
target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR}/src)
target_link_libraries(perfbench_lib PUBLIC mcs_serve mcs_core)

add_executable(mcs_perfbench ${PERFBENCH_DIR}/src/main.cpp)
target_link_libraries(mcs_perfbench PRIVATE perfbench_lib)

add_executable(perfbench_tests ${PERFBENCH_DIR}/tests/test_perfbench.cpp)
target_link_libraries(perfbench_tests PRIVATE perfbench_lib GTest::gtest_main)
add_test(NAME perfbench_tests COMMAND perfbench_tests)
