#pragma once
// BenchEx trading server.
//
// Serves transaction requests strictly FCFS (Section IV: each transaction
// may change the outcome of the next, so the exchange cannot reorder).
// Per-request latency decomposes exactly as the paper's Figure 2:
//   PTime — request CQE DMA-written by the HCA -> dequeued by the server
//           (queueing + polling delay),
//   CTime — financial processing (real pricing math, simulated CPU cost),
//   WTime — response posted -> its completion observed (I/O wait).
// A flushed or errored receive (its QP died) is no request: the server
// recycles the credit and skips it.

#include <cstdint>
#include <deque>

#include "benchex/config.hpp"
#include "benchex/endpoint.hpp"
#include "benchex/latency_agent.hpp"
#include "benchex/messages.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace resex::benchex {

struct ServerMetrics {
  sim::Samples ptime_us;
  sim::Samples ctime_us;
  sim::Samples wtime_us;
  sim::Samples total_us;
  std::uint64_t requests = 0;
  std::uint64_t send_errors = 0;
  double checksum = 0.0;  // accumulated pricing digests (results are real)
};

class Server {
 public:
  Server(Endpoint endpoint, const BenchExConfig& config,
         LatencyAgent* agent = nullptr);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The FCFS loop on the current endpoint; spawn onto the simulation. It
  /// stocks the receive queue first (unless move_to did) and runs forever
  /// (torn down with the simulation).
  [[nodiscard]] sim::Task run();

  /// Live migration: stock `endpoint`'s receive queue and make it current,
  /// so the next run() serves it. Metrics, pricing engine and agent carry
  /// over, so the request stream stays one series across moves. Earlier
  /// endpoints stay alive for the loops still parked on their CQs.
  [[nodiscard]] sim::Task move_to(Endpoint endpoint);

  [[nodiscard]] const ServerMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Endpoint& endpoint() noexcept { return endpoints_.back(); }
  /// Completed moves (endpoints beyond the first).
  [[nodiscard]] std::uint32_t moves() const noexcept {
    return static_cast<std::uint32_t>(endpoints_.size()) - 1;
  }
  [[nodiscard]] LatencyAgent* agent() noexcept { return agent_; }

 private:
  [[nodiscard]] sim::Task serve(Endpoint& ep, bool stock);

  // Every endpoint served, oldest first (a deque keeps their addresses
  // stable for the loops that hold them).
  std::deque<Endpoint> endpoints_;
  bool stocked_ = false;  // the current endpoint's receives are posted
  BenchExConfig config_;
  LatencyAgent* agent_;
  finance::RequestProcessor processor_;
  ServerMetrics metrics_;
};

}  // namespace resex::benchex
