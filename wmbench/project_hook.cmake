# Passed by run.py as CMAKE_PROJECT_INCLUDE, so CMake runs it right after
# the repository's top-level project() call. It defers including the
# benchmark's targets (benchmark.cmake) to the end of the top-level
# CMakeLists.txt: the harness is then compiled with the repository's exact
# flags and links its wm_* library targets, without any repository build
# file naming the benchmark.
# Deferred arguments are expanded when the call runs, so the path is kept
# in a variable set now.
set(WMBENCH_TARGETS_FILE "${CMAKE_CURRENT_LIST_DIR}/benchmark.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${WMBENCH_TARGETS_FILE}")
