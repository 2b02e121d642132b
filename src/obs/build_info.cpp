#include "obs/build_info.hpp"

#include <string>

#include "common/threadpool.hpp"
#include "obs/metrics.hpp"

namespace wm::obs {

const char* build_isa() {
  // Mirrors the dispatch order in tensor/gemm.cpp and tensor/i8gemm.cpp:
  // report the widest path the compiler was allowed to emit.
#if defined(__AVX512VNNI__)
  return "avx512vnni";
#elif defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#else
  return "scalar";
#endif
}

int build_threads() {
  return static_cast<int>(ThreadPool::global().worker_count()) + 1;
}

void register_build_info(Registry& registry) {
  registry.set_info(
      "wm_build_info",
      {{"isa", build_isa()},
       {"threads", std::to_string(build_threads())},
       {"version", kBuildVersion}},
      "Build/runtime identity of this process (constant 1)");
}

}  // namespace wm::obs
