#pragma once
// One BenchEx endpoint: a guest domain's verbs context plus its message ring
// (the region the peer RDMA-writes into) and the peer's ring coordinates
// (exchanged out-of-band at connection setup, as real RDMA applications do).

#include <cstdint>
#include <memory>

#include "benchex/config.hpp"
#include "fabric/verbs.hpp"
#include "sim/task.hpp"

namespace resex::benchex {

struct Endpoint {
  hv::Domain* domain = nullptr;
  std::unique_ptr<fabric::Verbs> verbs;
  std::uint32_t pd = 0;
  fabric::CompletionQueue* send_cq = nullptr;
  fabric::CompletionQueue* recv_cq = nullptr;
  fabric::QueuePair* qp = nullptr;

  mem::GuestAddr ring_base = 0;  // local ring the peer writes into
  mem::RegisteredRegion ring_mr;

  mem::GuestAddr peer_ring_base = 0;
  std::uint32_t peer_rkey = 0;

  [[nodiscard]] mem::GuestAddr slot_addr(std::uint32_t slot,
                                         std::uint32_t buffer_bytes) const {
    return ring_base + std::uint64_t{slot} * buffer_bytes;
  }
  [[nodiscard]] mem::GuestAddr peer_slot_addr(
      std::uint32_t slot, std::uint32_t buffer_bytes) const {
    return peer_ring_base + std::uint64_t{slot} * buffer_bytes;
  }
};

/// Set up `domain`'s endpoint on `hca`: verbs context, PD, send and receive
/// CQs, a latency-class QP and the registered ring. The control verbs are
/// called directly, so deployment-time setup costs no simulated time (a
/// live migration's re-setup pays the split-driver trips instead; see
/// cluster::Service::reattach_server).
[[nodiscard]] Endpoint make_endpoint(fabric::Hca& hca, hv::Domain& domain,
                                     const BenchExConfig& config);

/// Exchange ring coordinates out-of-band (real apps do this over a TCP
/// bootstrap) and connect the two QPs.
void connect(Endpoint& server, Endpoint& client);

/// Post one receive credit per ring slot.
[[nodiscard]] sim::Task post_ring_receives(Endpoint& ep,
                                           std::uint32_t ring_slots);

}  // namespace resex::benchex
