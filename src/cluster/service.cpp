#include "cluster/service.hpp"

#include "obs/trace.hpp"
#include "qos/config.hpp"

namespace resex::cluster {

Service::Service(fabric::Hca& server_hca, fabric::Hca& client_hca,
                 const benchex::BenchExConfig& config, std::string name,
                 bool with_agent)
    : pair_(server_hca, client_hca, config, std::move(name), with_agent,
            benchex::Stamp::kIntendedArrival) {}

sim::Task Service::reattach_server(fabric::Hca& dst) {
  auto& sim = dst.node().simulation();
  const benchex::BenchExConfig& cfg = config();

  benchex::Endpoint ep;
  hv::Domain& dom = dst.node().create_domain(
      {.name = name() + "/server.m" + std::to_string(migrations() + 1),
       .mem_pages = cfg.guest_pages()});
  ep.domain = &dom;
  ep.verbs = std::make_unique<fabric::Verbs>(dst, dom);
  auto& verbs = *ep.verbs;

  // Control path on the destination: every verb pays the split-driver trip.
  ep.pd = co_await verbs.alloc_pd();
  ep.send_cq = co_await verbs.create_cq(cfg.cq_entries);
  ep.recv_cq = co_await verbs.create_cq(cfg.cq_entries);
  ep.qp = co_await verbs.create_qp(ep.pd, *ep.send_cq, *ep.recv_cq);
  ep.qp->set_service_level(qos::kLatencySl);
  ep.ring_base = dom.allocator().allocate(cfg.ring_bytes(), mem::kPageSize);
  ep.ring_mr = co_await verbs.reg_mr(
      ep.pd, ep.ring_base, cfg.ring_bytes(),
      mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
          mem::Access::kRemoteRead);

  // Re-point both ends; the old server QP keeps its stale peer but never
  // transmits again.
  benchex::connect(ep, pair_.client().endpoint());
  benchex::Server& server = pair_.server();
  co_await server.move_to(std::move(ep));

  RESEX_TRACE_INSTANT(sim.tracer(), "cluster.reattach", "cluster",
                      {"node", static_cast<double>(dst.id())},
                      {"qp", static_cast<double>(server.endpoint().qp->num())});

  sim.spawn(server.run());
}

}  // namespace resex::cluster
