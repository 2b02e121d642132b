// wm::net::Replica — one in-process serving replica: the whole stack a
// wm_net serving process runs, restartable on its original ports.
//
// A replica owns an obs::Registry, a serve::SwappableClassifier over its
// initial model, a micro-batching serve::InferenceEngine, a net::Server and
// an obs::HttpExporter (/healthz + /metrics over the same registry). The
// fleet harnesses (loadgen --fleet, examples/fleet_demo) put several behind
// a net::Router and an obs::Collector; loadgen's single-server runs use one.
//
// Two outage scopes model the two ways a serving process goes away:
//
//   down()  the wire stack stops (server drained, engine shut down) while
//           the exporter stays up and /healthz answers 503 — a process that
//           is alive but not serving, so a router's prober gets an honest
//           unhealthy answer;
//   kill()  the whole process is gone: the exporter dies with the wire
//           stack, the health port refuses connections and a collector
//           marks the target down.
//
// up() brings back whatever the last outage took, rebinding the original
// wire and health ports. The registry and the swap wrapper survive both
// outages: counters resume like a warm-restarted process (a genuine reset
// is the collector's counter-reset rule's job), and a model promoted while
// the replica is down serves as soon as it is back.
//
// up(), down() and kill() are for one controlling thread; the stack they
// (re)build is as thread-safe as its parts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"

namespace wm::net {

class Replica {
 public:
  /// Stands the stack up. `engine` is used as given except for its
  /// registry, which is always the replica's own; `server.port` 0 binds an
  /// ephemeral wire port, and the health port is always ephemeral.
  explicit Replica(std::shared_ptr<const Classifier> initial,
                   const serve::EngineOptions& engine = {},
                   const ServerOptions& server = {});

  /// Takes the whole stack down (kill()).
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// (Re)starts whatever is stopped, on the original ports. No-op when the
  /// replica is already up.
  void up();
  /// Stops the wire stack; the exporter keeps answering, /healthz with 503.
  void down();
  /// Stops the wire stack and the exporter.
  void kill();

  /// SwappableClassifier::swap_to on the replica's model; works while the
  /// replica is down.
  std::vector<SelectivePrediction> swap_to(
      std::shared_ptr<const Classifier> candidate,
      std::span<const WaferMap> canaries, const std::string& label = "");

  /// The running engine; only valid while the replica is up.
  serve::InferenceEngine& engine() { return *engine_; }

  int wire_port() const { return server_opts_.port; }
  int health_port() const { return health_port_; }
  std::uint64_t version() const { return swap_.version(); }
  std::uint64_t swaps() const { return swap_.swaps(); }
  const obs::Registry& registry() const { return registry_; }

 private:
  obs::Registry registry_;
  serve::SwappableClassifier swap_;
  serve::EngineOptions engine_opts_;
  ServerOptions server_opts_;  // .port is the bound wire port after up()
  int health_port_ = 0;        // 0 only before the first up()
  std::atomic<bool> serving_{false};  // /healthz, read on the exporter thread
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<obs::HttpExporter> exporter_;
};

}  // namespace wm::net
