#pragma once
// Wires one BenchEx server/client pair into a simulated testbed: creates the
// two guest domains (server on one node, client on the other, as in the
// paper's two-machine setup), performs the verbs control-path setup, and
// exchanges ring coordinates out-of-band. The two-node testbed stamps
// requests at send time; cluster::Service builds its migratable service on
// a pair that stamps intended arrival times.

#include <memory>
#include <string>

#include "benchex/client.hpp"
#include "benchex/server.hpp"
#include "fabric/hca.hpp"

namespace resex::benchex {

class BenchPair {
 public:
  /// Build a pair named `name`: the server VM lives on `server_hca`'s node,
  /// the client VM on `client_hca`'s node. `with_agent` attaches the in-VM
  /// latency reporting agent (required for the IOShares policy); `stamp`
  /// picks the client's latency clock.
  BenchPair(fabric::Hca& server_hca, fabric::Hca& client_hca,
            const BenchExConfig& config, std::string name, bool with_agent,
            Stamp stamp);

  /// Spawn the server loop and client receiver/sender onto the simulation.
  /// Idempotent.
  void start();

  [[nodiscard]] Server& server() noexcept { return *server_; }
  [[nodiscard]] const Server& server() const noexcept { return *server_; }
  [[nodiscard]] Client& client() noexcept { return *client_; }
  [[nodiscard]] const Client& client() const noexcept { return *client_; }
  [[nodiscard]] LatencyAgent& agent() noexcept { return agent_; }
  [[nodiscard]] hv::Domain& server_domain() noexcept {
    return *server_->endpoint().domain;
  }
  [[nodiscard]] hv::Domain& client_domain() noexcept {
    return *client_->endpoint().domain;
  }
  [[nodiscard]] const BenchExConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool started() const noexcept { return started_; }

 private:
  BenchExConfig config_;
  std::string name_;
  LatencyAgent agent_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
  bool started_ = false;
};

}  // namespace resex::benchex
