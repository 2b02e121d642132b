// Build/runtime identity for a serving process.
//
// Every /metrics scrape should say *which* binary answered: the ISA path
// the kernels were compiled for, the thread budget it runs with, and the
// repo version — otherwise a fleet of heterogeneous replicas is
// indistinguishable in dashboards.
#pragma once

#include <string>

namespace wm::obs {

class Registry;

/// Repo version baked at compile time.
inline constexpr const char kBuildVersion[] = "0.8.0";

/// Compile-time ISA path of the widest tensor kernels in this binary
/// ("avx512vnni", "avx512", "avx2", "avx", or "scalar").
const char* build_isa();

/// Compute threads of the global pool, caller included: WM_THREADS when
/// set, else one per hardware core (ThreadPool::default_worker_count).
int build_threads();

/// Registers the `wm_build_info{isa=...,threads=...,version=...} 1` info
/// metric in `registry`. Idempotent; called by HttpExporter so every scrape
/// surface carries it.
void register_build_info(Registry& registry);

}  // namespace wm::obs
