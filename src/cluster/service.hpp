#pragma once
// A migratable BenchEx service: one trading server VM plus its remote
// client, deployed on cluster nodes and built so the server can be moved
// while the client keeps its connection.
//
// It is a benchex::BenchPair (the same server and client loops as the
// two-node testbed) plus the migration protocol. A move stands up a fresh
// domain + verbs context + ring on the destination node (every control verb
// paying the split-driver hypercall cost there), re-points the client's QP
// at the new server QP and hands the new endpoint to the same
// benchex::Server, so metrics, the latency agent and the pricing engine
// carry over and the request stream is one continuous series across moves.
// The old incarnation is abandoned; the server keeps it alive.
//
// The one difference from the testbed's pairs is the stamp: latency is
// measured coordinated-omission-free, an open-loop request stamped with its
// *intended* arrival time, so requests that queue behind a migration
// blackout (or behind exhausted ring credits) carry the stall in their
// reported latency instead of silently shifting the load.

#include <cstdint>
#include <string>

#include "benchex/deployment.hpp"
#include "sim/task.hpp"

namespace resex::cluster {

class Service {
 public:
  /// Creates the server domain on `server_hca`'s node and the client domain
  /// on `client_hca`'s node, wires the rings, but starts no traffic.
  Service(fabric::Hca& server_hca, fabric::Hca& client_hca,
          const benchex::BenchExConfig& config, std::string name,
          bool with_agent = true);

  /// Spawn the server loop and both client loops. Idempotent.
  void start() { pair_.start(); }

  [[nodiscard]] const std::string& name() const noexcept {
    return pair_.name();
  }
  [[nodiscard]] const benchex::BenchExConfig& config() const noexcept {
    return pair_.config();
  }
  [[nodiscard]] fabric::Hca& server_hca() noexcept {
    return pair_.server().endpoint().verbs->hca();
  }
  /// Node the server currently runs on (HCA ids equal cluster node indices).
  [[nodiscard]] std::uint32_t server_node_id() noexcept {
    return server_hca().id();
  }
  [[nodiscard]] hv::Domain& server_domain() noexcept {
    return pair_.server_domain();
  }
  [[nodiscard]] benchex::LatencyAgent* agent() noexcept {
    return pair_.server().agent();
  }
  [[nodiscard]] const benchex::ServerMetrics& server_metrics() const noexcept {
    return pair_.server().metrics();
  }
  [[nodiscard]] const benchex::ClientMetrics& client_metrics() const noexcept {
    return pair_.client().metrics();
  }
  /// Completed moves (incarnations beyond the first).
  [[nodiscard]] std::uint32_t migrations() const noexcept {
    return pair_.server().moves();
  }
  [[nodiscard]] std::uint32_t outstanding() const noexcept {
    return pair_.client().outstanding();
  }

  // --- migration protocol (driven by MigrationEngine) -----------------------

  /// Stop posting new requests. Open-loop arrivals keep accruing, so the
  /// post-resume burst carries the blackout in its latency samples.
  void suspend_client() noexcept { pair_.client().suspend(); }
  /// Resume posting (wakes a sender blocked on the suspend gate).
  void resume_client() { pair_.client().resume(); }

  /// Stand the server up on `dst`: new domain, verbs context, CQs, QP and
  /// ring (each control verb paying the hypercall round trip on the
  /// destination), client QP re-pointed, receive credits posted, new server
  /// loop spawned. The old incarnation is kept alive but abandoned; pausing
  /// its VCPU and retiring its domain is the caller's job.
  [[nodiscard]] sim::Task reattach_server(fabric::Hca& dst);

 private:
  benchex::BenchPair pair_;
};

}  // namespace resex::cluster
