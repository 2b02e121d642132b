// ServerConfig: the explicit-field > env var > default precedence rule,
// hardened env parsing, and the overlay onto the per-subsystem option
// structs, whose initialisers are the defaults.
#include "serve/server_config.hpp"

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/logging.hpp"

namespace wm::serve {
namespace {

/// Clears every WM_SERVE_* knob so tests start from a clean environment
/// and restores nothing (each test sets what it needs).
void clear_env() {
  for (const char* name :
       {"WM_SERVE_PORT", "WM_SERVE_BACKLOG", "WM_SERVE_WORKERS",
        "WM_SERVE_MAX_BATCH", "WM_SERVE_MAX_DELAY_US",
        "WM_SERVE_QUEUE_CAPACITY"}) {
    ::unsetenv(name);
  }
}

TEST(ServerConfigTest, DefaultsWhenNothingIsSet) {
  clear_env();
  const EngineOptions eo = ServerConfig{}.engine_options();
  EXPECT_EQ(eo.max_batch, 32);
  EXPECT_EQ(eo.max_delay_us, 2000);
  EXPECT_EQ(eo.queue_capacity, 256u);
  const net::ServerOptions so = ServerConfig{}.server_options();
  EXPECT_EQ(so.port, 0);
  EXPECT_EQ(so.backlog, 64);
  EXPECT_EQ(so.workers, 2);
  EXPECT_EQ(so.io_timeout_ms, 5000);
  EXPECT_EQ(so.bind_address, "127.0.0.1");
}

TEST(ServerConfigTest, EnvBeatsDefault) {
  clear_env();
  ::setenv("WM_SERVE_PORT", "9100", 1);
  ::setenv("WM_SERVE_WORKERS", "7", 1);
  ::setenv("WM_SERVE_MAX_BATCH", "64", 1);
  const net::ServerOptions so = ServerConfig{}.server_options();
  EXPECT_EQ(so.port, 9100);
  EXPECT_EQ(so.workers, 7);
  EXPECT_EQ(ServerConfig{}.engine_options().max_batch, 64);
  EXPECT_EQ(so.backlog, 64);  // untouched knobs keep their defaults
  clear_env();
}

TEST(ServerConfigTest, ExplicitFieldBeatsEnv) {
  clear_env();
  ::setenv("WM_SERVE_PORT", "9100", 1);
  ::setenv("WM_SERVE_WORKERS", "7", 1);
  const ServerConfig cfg{.port = 9200, .workers = 3};
  const net::ServerOptions so = cfg.server_options();
  EXPECT_EQ(so.port, 9200);
  EXPECT_EQ(so.workers, 3);
  clear_env();
}

TEST(ServerConfigTest, MalformedEnvFallsThroughToDefault) {
  clear_env();
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Off);
  ::setenv("WM_SERVE_BACKLOG", "not-a-number", 1);
  ::setenv("WM_SERVE_WORKERS", "100000", 1);  // out of [1, 256]
  ::setenv("WM_SERVE_MAX_DELAY_US", "-5", 1);
  const net::ServerOptions so = ServerConfig{}.server_options();
  EXPECT_EQ(so.backlog, 64);
  EXPECT_EQ(so.workers, 2);
  EXPECT_EQ(ServerConfig{}.engine_options().max_delay_us, 2000);
  set_log_level(saved);
  clear_env();
}

TEST(ServerConfigTest, EnvKnobsAreRangeChecked) {
  clear_env();
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Off);
  ::setenv("WM_SERVE_PORT", "12345", 1);
  EXPECT_EQ(ServerConfig{}.server_options().port, 12345);
  ::setenv("WM_SERVE_PORT", "70000", 1);  // out of range: warn + fallback
  EXPECT_EQ(ServerConfig{}.server_options().port, 0);
  ::setenv("WM_SERVE_PORT", "not-a-port", 1);
  EXPECT_EQ(ServerConfig{}.server_options().port, 0);
  ::unsetenv("WM_SERVE_PORT");
  EXPECT_EQ(ServerConfig{}.server_options().port, 0);

  ::setenv("WM_SERVE_BACKLOG", "128", 1);
  EXPECT_EQ(ServerConfig{}.server_options().backlog, 128);
  ::setenv("WM_SERVE_BACKLOG", "-3", 1);
  EXPECT_EQ(ServerConfig{}.server_options().backlog, 64);
  ::unsetenv("WM_SERVE_BACKLOG");
  EXPECT_EQ(ServerConfig{}.server_options().backlog, 64);
  set_log_level(saved);
}

TEST(ServerConfigTest, AdaptersCarryTheResolvedValues) {
  clear_env();
  const ServerConfig cfg{.port = 9300,
                         .backlog = 128,
                         .workers = 4,
                         .max_batch = 16,
                         .max_delay_us = 500,
                         .queue_capacity = 1024,
                         .bind_address = "127.0.0.1"};
  obs::Registry registry;

  const EngineOptions eo = cfg.engine_options(&registry);
  EXPECT_EQ(eo.max_batch, 16);
  EXPECT_EQ(eo.max_delay_us, 500);
  EXPECT_EQ(eo.queue_capacity, 1024u);
  EXPECT_EQ(eo.registry, &registry);

  const net::ServerOptions so = cfg.server_options(&registry);
  EXPECT_EQ(so.port, 9300);
  EXPECT_EQ(so.backlog, 128);
  EXPECT_EQ(so.workers, 4);
  EXPECT_EQ(so.bind_address, "127.0.0.1");
  EXPECT_EQ(so.registry, &registry);
}

}  // namespace
}  // namespace wm::serve
