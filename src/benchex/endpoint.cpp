#include "benchex/endpoint.hpp"

#include "qos/config.hpp"

namespace resex::benchex {

Endpoint make_endpoint(fabric::Hca& hca, hv::Domain& domain,
                       const BenchExConfig& config) {
  Endpoint ep;
  ep.domain = &domain;
  ep.verbs = std::make_unique<fabric::Verbs>(hca, domain);
  ep.pd = hca.alloc_pd(domain);
  ep.send_cq = &hca.create_cq(domain, config.cq_entries);
  ep.recv_cq = &hca.create_cq(domain, config.cq_entries);
  ep.qp = &hca.create_qp(domain, ep.pd, *ep.send_cq, *ep.recv_cq);
  // BenchEx request/response traffic is the latency class (SL 0 is also the
  // default; stated explicitly because this QP's class is a contract).
  ep.qp->set_service_level(qos::kLatencySl);
  ep.ring_base = domain.allocator().allocate(config.ring_bytes(),
                                             mem::kPageSize);
  ep.ring_mr = hca.reg_mr(ep.pd, domain, ep.ring_base, config.ring_bytes(),
                          mem::Access::kLocalWrite |
                              mem::Access::kRemoteWrite |
                              mem::Access::kRemoteRead);
  return ep;
}

void connect(Endpoint& server, Endpoint& client) {
  server.peer_ring_base = client.ring_base;
  server.peer_rkey = client.ring_mr.rkey;
  client.peer_ring_base = server.ring_base;
  client.peer_rkey = server.ring_mr.rkey;
  fabric::Fabric::connect(*server.qp, *client.qp);
}

sim::Task post_ring_receives(Endpoint& ep, std::uint32_t ring_slots) {
  for (std::uint32_t i = 0; i < ring_slots; ++i) {
    co_await ep.verbs->post_recv(*ep.qp, fabric::RecvWr{.wr_id = i});
  }
}

}  // namespace resex::benchex
