#pragma once
// BenchEx client: posts timestamped transaction requests and measures
// round-trip latency from its own clock (request stamp -> response receipt).
//
// Open-loop mode paces requests from a trace arrival process (a market feed
// does not wait for the exchange); when all ring slots are in flight it
// blocks on credits, bounding memory. Closed-loop mode keeps a fixed number
// of requests outstanding and is the paper's interference generator.
//
// Every response, errored ones included, returns its credit. A suspended
// client posts nothing (open-loop arrivals keep accruing, so the burst after
// resume() carries the stall in its latency samples).

#include <cstdint>
#include <memory>

#include "benchex/config.hpp"
#include "benchex/endpoint.hpp"
#include "benchex/messages.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "trace/workload.hpp"

namespace resex::benchex {

struct ClientMetrics {
  sim::Samples latency_us;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
};

/// The time a request is stamped with, which its latency is measured from.
/// The two differ only for an open-loop request that waited for a credit
/// (or behind a suspend).
enum class Stamp : std::uint8_t {
  kSendTime,  // when the request is posted
  // When the arrival process scheduled it: coordinated-omission-free, a
  // stall shows in the latency instead of silently shifting the load.
  kIntendedArrival,
};

class Client {
 public:
  Client(Endpoint endpoint, const BenchExConfig& config, Stamp stamp);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Request generator loop; spawn onto the simulation.
  [[nodiscard]] sim::Task run_sender();
  /// Response consumer loop; spawn onto the simulation.
  [[nodiscard]] sim::Task run_receiver();

  /// Stop posting new requests.
  void suspend() noexcept { suspended_ = true; }
  /// Resume posting (wakes a sender blocked on the suspend gate).
  void resume();
  /// Await until no requests are in flight. Suspend first, or it may never
  /// return.
  [[nodiscard]] sim::Task wait_quiescent();

  [[nodiscard]] const ClientMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Endpoint& endpoint() noexcept { return ep_; }
  [[nodiscard]] std::uint32_t outstanding() const noexcept {
    return outstanding_;
  }

 private:
  [[nodiscard]] sim::Task send_one(sim::SimTime stamp);
  [[nodiscard]] std::uint32_t queue_depth_limit() const;

  Endpoint ep_;
  BenchExConfig config_;
  Stamp stamp_;
  trace::ArrivalProcess arrivals_;
  sim::Rng mix_rng_;
  trace::RequestMix mix_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t outstanding_ = 0;
  bool suspended_ = false;
  std::unique_ptr<sim::Trigger> credit_;  // fired per response + on resume
  ClientMetrics metrics_;
};

}  // namespace resex::benchex
