#include "benchex/deployment.hpp"

namespace resex::benchex {

BenchPair::BenchPair(fabric::Hca& server_hca, fabric::Hca& client_hca,
                     const BenchExConfig& config, std::string name,
                     bool with_agent, Stamp stamp)
    : config_(config), name_(std::move(name)) {
  hv::Domain& sdom = server_hca.node().create_domain(
      {.name = name_ + "/server", .mem_pages = config.guest_pages()});
  hv::Domain& cdom = client_hca.node().create_domain(
      {.name = name_ + "/client", .mem_pages = config.guest_pages()});

  Endpoint sep = make_endpoint(server_hca, sdom, config_);
  Endpoint cep = make_endpoint(client_hca, cdom, config_);
  connect(sep, cep);

  server_ = std::make_unique<Server>(std::move(sep), config_,
                                     with_agent ? &agent_ : nullptr);
  client_ = std::make_unique<Client>(std::move(cep), config_, stamp);
}

void BenchPair::start() {
  if (started_) return;
  started_ = true;
  auto& sim = server_->endpoint().verbs->vcpu().simulation();
  sim.spawn(server_->run());
  sim.spawn(client_->run_receiver());
  sim.spawn(client_->run_sender());
}

}  // namespace resex::benchex
