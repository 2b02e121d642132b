// The benchmark harness. An untraced run sets up what the named workload
// needs (repeatedly for short set-ups, for setup_s), runs that workload's
// part alone for --seconds and reports the end-to-end metrics: setup_s,
// rss_peak_mb, and the part's own `wps` and `latency_ms`. A traced run
// (--trace 1) reports the per-layer metrics instead: it sets up every part,
// runs the named one untraced once for the tracing-cost baseline, then runs
// all three parts traced at their fixed minimum lengths, so every traced run
// reports the whole per-layer ledger.
//
//   wmbench_harness --workload score_lot --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is the result object; exit status 0 means every
// output check passed and every phase was valid.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "obs/build_info.hpp"
#include "parts.hpp"
#include "serve.hpp"

#ifndef WMBENCH_BUILD_TYPE
#define WMBENCH_BUILD_TYPE "unknown"
#endif

namespace wmbench {
namespace {

// Set-up repeats until this much time has passed, so that a set-up of a
// few milliseconds still gets a median over many.
constexpr double kSetupMinSeconds = 0.5;
constexpr int kLot32 = 384;  // 1.5 eval-batch chunks: a partial last chunk
constexpr int kLot64 = 160;  // one partial chunk
constexpr int kServePool = 256;  // distinct wafers the clients send

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string out_dir = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload != "score_lot" && a.workload != "serve_open" &&
      a.workload != "train_pipeline") {
    throw std::invalid_argument("--workload must be score_lot, serve_open or "
                                "train_pipeline, got '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

const std::vector<std::string> kParts = {"score_lot", "serve_open",
                                         "train_pipeline"};

/// Everything the parts run against, built once per set-up repetition; a
/// part's members stay empty when it is not run.
struct World {
  std::vector<wm::WaferMap> lot32;
  std::vector<wm::WaferMap> lot64;
  Model m32;
  Model m64;
  TrainData train;
  std::unique_ptr<ServeFixture> serve;  // declared last: destroyed first
};

/// The stack wm_tool serve builds, serving the 32x32 fp32 model.
std::unique_ptr<ServeFixture> make_stack(const World& w, bool traced) {
  // Non-owning: the model outlives the fixture (see World's member order).
  const std::shared_ptr<const wm::Classifier> served(
      std::shared_ptr<const wm::Classifier>(), w.m32.fp32.get());
  return std::make_unique<ServeFixture>(
      served, *w.m32.fp32,
      std::vector<wm::WaferMap>(w.lot32.begin(), w.lot32.begin() + kServePool),
      traced);
}

std::unique_ptr<World> set_up(const std::vector<std::string>& parts,
                              std::uint64_t seed, SetupTimes& t) {
  const auto needs = [&](const char* part) {
    return std::find(parts.begin(), parts.end(), part) != parts.end();
  };
  const bool score = needs("score_lot");
  const bool serve = needs("serve_open");
  auto w = std::make_unique<World>();
  auto t0 = Clock::now();
  wm::Rng rng(seed);
  if (score || serve) w->lot32 = maps_of(table2_set(32, true, kLot32, rng));
  if (score) w->lot64 = maps_of(table2_set(64, true, kLot64, rng));
  if (needs("train_pipeline")) w->train = make_train_data(seed + 17);
  t.synth_s += seconds_since(t0);
  if (score || serve) w->m32 = train_model(32, seed * 2 + 1, t);
  if (score) w->m64 = train_model(64, seed * 2 + 2, t);
  if (serve) {
    t0 = Clock::now();
    w->serve = make_stack(*w, /*traced=*/false);
    t.stack_start_s += seconds_since(t0);
  }
  return w;
}

void print_metrics(const MetricSet& m) {
  for (const auto& [name, x] : m.all()) {
    std::printf("  %-48s %14.6g %-9s n=%llu\n", name.c_str(), x.value,
                x.unit.c_str(), static_cast<unsigned long long>(x.samples));
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Steal and total jiffies of all CPUs from /proc/stat (zeros elsewhere).
std::pair<double, double> cpu_steal_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

int run(const Args& a) {
  // Hypervisor steal during the run, printed for reading noisy figures.
  const auto steal0 = cpu_steal_total();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("stamp: {\"nproc\": %u, \"build_threads\": %d, \"isa\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              nproc, wm::obs::build_threads(), wm::obs::build_isa(),
              WMBENCH_BUILD_TYPE, compiler().c_str(), a.git_sha.c_str(),
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0);
  std::fflush(stdout);

  // Set-up runs from scratch at least once and for kSetupMinSeconds;
  // setup_s is the median and the last repetition's world is measured.
  const std::vector<std::string> parts =
      a.trace ? kParts : std::vector<std::string>{a.workload};
  std::vector<double> setup_total;
  std::vector<SetupTimes> stages;
  std::unique_ptr<World> w;
  const auto setup_start = Clock::now();
  while (setup_total.empty() ||
         seconds_since(setup_start) < kSetupMinSeconds) {
    w.reset();
    SetupTimes t;
    const auto t0 = Clock::now();
    w = set_up(parts, a.seed, t);
    setup_total.push_back(seconds_since(t0));
    stages.push_back(t);
  }
  std::printf("setup: %.3f s median of %zu\n", median(setup_total),
              setup_total.size());
  std::fflush(stdout);

  const std::vector<ScoreCase> cases = {{"m32", &w->m32, &w->lot32},
                                        {"m64", &w->m64, &w->lot64}};
  // `seconds` = 0 runs the part's fixed minimum.
  const auto run_part = [&](const std::string& part, double seconds,
                            SpanRecorder& rec, std::vector<std::string>& invalid) {
    const auto t0 = Clock::now();
    PartResult r;
    if (part == "score_lot") {
      r = run_score(cases, seconds, a.seed, rec);
    } else if (part == "serve_open") {
      r = run_serve(*w->serve, serve_phases(seconds), a.seed, rec, invalid);
    } else {
      r = run_train(w->train, seconds, a.seed, rec);
    }
    std::printf("%s%s: %.2f s, %llu attempted, %llu failed\n", part.c_str(),
                rec.enabled() ? " (traced)" : "", seconds_since(t0),
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed));
    std::fflush(stdout);
    return r;
  };

  MetricSet metrics;
  Tally tally;
  std::vector<std::string> invalid;
  SpanRecorder rec(a.trace);
  if (!a.trace) {
    const PartResult r = run_part(a.workload, a.seconds, rec, invalid);
    metrics.merge(r.metrics);
    tally.merge(r.tally);
    metrics.set("setup_s", median(setup_total), "s", setup_total.size());
  } else {
    // Tracing cost: the named part's `wps` untraced (no spans, replays or
    // timing decorator) over traced, each over the part's fixed minimum.
    SpanRecorder off(false);
    const PartResult base = run_part(a.workload, 0.0, off, invalid);
    tally.merge(base.tally);
    // The traced stack wraps the model in the timing decorator.
    w->serve = make_stack(*w, /*traced=*/true);
    double traced_headline = 0.0;
    for (const std::string& part : kParts) {
      PartResult r = run_part(part, 0.0, rec, invalid);
      if (part == a.workload) traced_headline = r.headline;
      metrics.merge(r.metrics);
      tally.merge(r.tally);
    }
    metrics.set("trace_time_ratio", base.headline / traced_headline, "ratio", 1);
    const auto stage = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : stages) v.push_back(t.*field);
      return median(v);
    };
    metrics.set("setup.synth_s", stage(&SetupTimes::synth_s), "s", stages.size());
    metrics.set("setup.train_s", stage(&SetupTimes::train_s), "s", stages.size());
    metrics.set("setup.calibrate_s", stage(&SetupTimes::calibrate_s), "s",
                stages.size());
    metrics.set("setup.quantize_s", stage(&SetupTimes::quantize_s), "s",
                stages.size());
    metrics.set("setup.stack_start_s", stage(&SetupTimes::stack_start_s), "s",
                stages.size());
    const std::string spans = a.out_dir + "/spans-" + a.workload + "-s" +
                              std::to_string(a.seed) + ".json";
    rec.write_json(spans);
    std::printf("spans: %s\n", spans.c_str());
  }
  w.reset();

  if (!a.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metrics.set("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
                1);
  }

  const auto steal1 = cpu_steal_total();
  if (steal1.second > steal0.second) {
    std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
                "run\n", 100.0 * (steal1.first - steal0.first) /
                              (steal1.second - steal0.second));
  }
  std::printf("metrics (%s):\n", a.trace ? "per-layer" : "end-to-end");
  print_metrics(metrics);
  for (const std::string& e : tally.errors) std::printf("FAILED: %s\n", e.c_str());
  for (const std::string& e : invalid) std::printf("INVALID: %s\n", e.c_str());
  const bool correct = tally.failed == 0 && invalid.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, x] : metrics.all()) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(x.value) + ", \"unit\": \"" + x.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wmbench

int main(int argc, char** argv) {
  try {
    return wmbench::run(wmbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmbench_harness: %s\n", e.what());
    return 2;
  }
}
