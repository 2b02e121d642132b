// net::Replica's two outage scopes over real loopback sockets: down()
// keeps /healthz answering 503, kill() takes the health port away, and
// up() rebinds the original ports and serves whatever model the replica
// holds by then.
#include "net/replica.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/client.hpp"
#include "obs/http_exporter.hpp"

namespace wm::net {
namespace {

using namespace std::chrono_literals;

/// label = wafer fail count; g = a marker naming the model that answered.
class MarkerClassifier final : public Classifier {
 public:
  explicit MarkerClassifier(float marker) : marker_(marker) {}

  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override {
    std::vector<SelectivePrediction> out(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      out[i].label = maps[i].fail_count();
      out[i].selected = true;
      out[i].g = marker_;
    }
    return out;
  }

  int num_classes() const override { return 1 << 16; }

 private:
  float marker_;
};

WaferMap test_map() {
  WaferMap map(12);
  map.mark_fail(6, 6);
  return map;
}

int healthz_status(int port) {
  const std::string response = obs::http_get_local(port, "/healthz");
  return std::stoi(response.substr(response.find(' ') + 1, 3));
}

/// The first OK answer from `client` within 10 s (it reconnects with
/// backoff after a restart).
CallResult first_ok(Client& client) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  CallResult r;
  do {
    r = client.predict(test_map());
  } while (r.status != Status::kOk &&
           std::chrono::steady_clock::now() < deadline);
  return r;
}

ClientOptions fast_client(int port) {
  return {.port = port,
          .connect_timeout_ms = 500,
          .max_connect_attempts = 2,
          .backoff_initial_ms = 1,
          .backoff_max_ms = 4};
}

TEST(NetReplicaTest, DownAnswers503AndUpServesTheModelSwappedMeanwhile) {
  Replica replica(std::make_shared<MarkerClassifier>(0.25f),
                  {.max_batch = 4, .max_delay_us = 0}, {.workers = 1});
  const int wire = replica.wire_port();
  const int health = replica.health_port();
  ASSERT_GT(wire, 0);
  ASSERT_GT(health, 0);
  EXPECT_EQ(healthz_status(health), 200);

  Client client(fast_client(wire));
  CallResult r = client.predict(test_map());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.prediction.g, 0.25f);

  replica.down();
  EXPECT_EQ(healthz_status(health), 503);  // alive, not serving
  EXPECT_EQ(client.predict(test_map()).status, Status::kConnectionError);

  // Promote a new model while the wire stack is down.
  const std::vector<WaferMap> canaries = {test_map()};
  const auto expected = replica.swap_to(
      std::make_shared<MarkerClassifier>(0.75f), canaries, "v2");
  EXPECT_EQ(replica.version(), 2u);
  EXPECT_EQ(replica.swaps(), 1u);

  replica.up();
  EXPECT_EQ(replica.wire_port(), wire);
  EXPECT_EQ(replica.health_port(), health);
  EXPECT_EQ(healthz_status(health), 200);
  r = first_ok(client);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(serve::bit_equal(r.prediction, expected[0]));
  EXPECT_EQ(r.prediction.g, 0.75f);
}

TEST(NetReplicaTest, KillRefusesTheHealthPortAndUpRebindsBoth) {
  Replica replica(std::make_shared<MarkerClassifier>(0.25f),
                  {.max_batch = 4, .max_delay_us = 0}, {.workers = 1});
  const int wire = replica.wire_port();
  const int health = replica.health_port();
  Client client(fast_client(wire));
  ASSERT_EQ(client.predict(test_map()).status, Status::kOk);

  replica.kill();
  EXPECT_THROW(obs::http_get_local(health, "/healthz"), IoError);
  EXPECT_EQ(client.predict(test_map()).status, Status::kConnectionError);

  replica.up();
  EXPECT_EQ(replica.wire_port(), wire);
  EXPECT_EQ(replica.health_port(), health);
  EXPECT_EQ(healthz_status(health), 200);
  EXPECT_EQ(first_ok(client).status, Status::kOk);

  // The registry survives the restart: the new exporter serves the
  // counters of both lifetimes of the engine.
  const std::string metrics = obs::http_get_local(health, "/metrics");
  EXPECT_NE(metrics.find("wm_serve_requests_total 2"), std::string::npos);
}

}  // namespace
}  // namespace wm::net
