# Targets of the benchmark, included into the repository's top-level
# directory scope by project_hook.cmake.
set(WMBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

add_library(wmbench_core STATIC
  ${WMBENCH_DIR}/harness/core.cpp
  ${WMBENCH_DIR}/harness/replay.cpp
  ${WMBENCH_DIR}/harness/setup.cpp
  ${WMBENCH_DIR}/harness/score.cpp
  ${WMBENCH_DIR}/harness/serve.cpp
  ${WMBENCH_DIR}/harness/train.cpp
)
target_include_directories(wmbench_core PUBLIC ${WMBENCH_DIR}/harness)
target_link_libraries(wmbench_core PUBLIC
  wm_selective wm_augment wm_net wm_adapt wm_serve wm_obs wm_common)

add_executable(wmbench_harness ${WMBENCH_DIR}/harness/main.cpp)
target_compile_definitions(wmbench_harness PRIVATE
  WMBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(wmbench_harness PRIVATE wmbench_core)

add_executable(wmbench_tests ${WMBENCH_DIR}/tests/harness_test.cpp)
target_link_libraries(wmbench_tests PRIVATE wmbench_core GTest::gtest_main)
