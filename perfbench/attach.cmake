# Hooks the benchmark into the repository's own CMake project without
# editing it. Configure from the repository root with
#   cmake -S . -B <dir> -DCMAKE_PROJECT_INCLUDE=<abs path to this file>
# CMake includes this file right after the root project() call. The
# deferred include of targets.cmake then runs once the root CMakeLists.txt
# has set the language standard and flags and defined every mcs_* library,
# so the benchmark links the simulator built exactly as the repository
# builds it.
# Deferred arguments are expanded when the call runs, so the path goes
# through a variable that stays set in the root directory's scope.
set(PERFBENCH_TARGETS_FILE "${CMAKE_CURRENT_LIST_DIR}/targets.cmake")
cmake_language(DEFER CALL include "${PERFBENCH_TARGETS_FILE}")
