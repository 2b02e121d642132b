#include "net/replica.hpp"

namespace wm::net {

Replica::Replica(std::shared_ptr<const Classifier> initial,
                 const serve::EngineOptions& engine,
                 const ServerOptions& server)
    : swap_(std::move(initial), {.registry = &registry_}),
      engine_opts_(engine),
      server_opts_(server) {
  engine_opts_.registry = &registry_;
  up();
}

Replica::~Replica() { kill(); }

void Replica::up() {
  if (serving_.load()) return;
  engine_ = std::make_unique<serve::InferenceEngine>(swap_, engine_opts_);
  server_ = std::make_unique<Server>(*engine_, server_opts_);
  server_opts_.port = server_->port();
  if (exporter_ == nullptr) {
    obs::HttpExporterOptions opts;
    opts.port = health_port_;
    opts.registry = &registry_;
    opts.healthy = [this] { return serving_.load(); };
    exporter_ = std::make_unique<obs::HttpExporter>(opts);
    health_port_ = exporter_->port();
  }
  serving_.store(true);
}

void Replica::down() {
  serving_.store(false);
  if (server_ != nullptr) {
    server_->stop();
    server_.reset();
  }
  if (engine_ != nullptr) {
    engine_->shutdown();
    engine_.reset();
  }
}

void Replica::kill() {
  down();
  exporter_.reset();
}

std::vector<SelectivePrediction> Replica::swap_to(
    std::shared_ptr<const Classifier> candidate,
    std::span<const WaferMap> canaries, const std::string& label) {
  return swap_.swap_to(std::move(candidate), canaries, label);
}

}  // namespace wm::net
