#include "serve/server_config.hpp"

#include "common/env.hpp"

namespace wm::serve {

EngineOptions ServerConfig::engine_options(obs::Registry* registry,
                                           SelectiveMonitor* monitor) const {
  EngineOptions o{.registry = registry, .monitor = monitor};
  overlay(o.max_batch, max_batch, "WM_SERVE_MAX_BATCH", 1, 4096);
  overlay(o.max_delay_us, max_delay_us, "WM_SERVE_MAX_DELAY_US", 0,
          10'000'000);
  overlay(o.queue_capacity, queue_capacity, "WM_SERVE_QUEUE_CAPACITY", 1,
          1'000'000);
  return o;
}

net::ServerOptions ServerConfig::server_options(obs::Registry* registry) const {
  net::ServerOptions o{.bind_address = bind_address, .registry = registry};
  overlay(o.port, port, "WM_SERVE_PORT", 1, 65535);
  overlay(o.backlog, backlog, "WM_SERVE_BACKLOG", 1, 4096);
  overlay(o.workers, workers, "WM_SERVE_WORKERS", 1, 256);
  return o;
}

}  // namespace wm::serve
