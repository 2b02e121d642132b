// serve::ServerConfig — one configuration for a serving replica's engine
// and TCP front-end.
//
// Every knob resolves with one precedence rule:
//
//   explicit field  >  environment variable  >  default
//
// The defaults are the initialisers of EngineOptions and net::ServerOptions;
// engine_options() / server_options() start from those structs and overlay
// each set field, else its env var (common/env.hpp: malformed or
// out-of-range values warn and keep the default, never half-apply):
//
//   serve::ServerConfig cfg{.port = 9000, .workers = 4};
//   serve::InferenceEngine engine(clf, cfg.engine_options(&reg, &monitor));
//   net::Server server(engine, cfg.server_options());
//
// Environment variables (all optional):
//   WM_SERVE_PORT            TCP port                  [1, 65535]
//   WM_SERVE_BACKLOG         kernel accept backlog     [1, 4096]
//   WM_SERVE_WORKERS         connection worker threads [1, 256]
//   WM_SERVE_MAX_BATCH       engine micro-batch size   [1, 4096]
//   WM_SERVE_MAX_DELAY_US    engine flush delay        [0, 10^7]
//   WM_SERVE_QUEUE_CAPACITY  engine queue bound        [1, 10^6]
// The metrics exporter's port, WM_HTTP_PORT, is read by
// obs::HttpExporter::port_from_env alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/server.hpp"
#include "serve/inference_engine.hpp"

namespace wm::serve {

struct ServerConfig {
  /// TCP port for the wire protocol; 0 = ephemeral. Env: WM_SERVE_PORT.
  std::optional<int> port;
  /// Kernel accept backlog. Env: WM_SERVE_BACKLOG.
  std::optional<int> backlog;
  /// Connection worker threads. Env: WM_SERVE_WORKERS.
  std::optional<int> workers;
  /// Engine micro-batch size. Env: WM_SERVE_MAX_BATCH.
  std::optional<int> max_batch;
  /// Engine flush delay. Env: WM_SERVE_MAX_DELAY_US.
  std::optional<std::int64_t> max_delay_us;
  /// Engine queue bound. Env: WM_SERVE_QUEUE_CAPACITY.
  std::optional<std::size_t> queue_capacity;
  /// Listen address (no env knob), default loopback.
  std::string bind_address = "127.0.0.1";

  /// EngineOptions{} with the batching knobs overlaid (registry/monitor
  /// pass through).
  EngineOptions engine_options(obs::Registry* registry = nullptr,
                               SelectiveMonitor* monitor = nullptr) const;

  /// net::ServerOptions{} with the listener knobs overlaid.
  net::ServerOptions server_options(obs::Registry* registry = nullptr) const;
};

}  // namespace wm::serve
