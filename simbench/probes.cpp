#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/topology.hpp"
#include "core/testbed.hpp"
#include "fabric/verbs.hpp"
#include "finance/workload.hpp"
#include "hv/schedule_model.hpp"
#include "ibmon/ibmon.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "routing/table.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace simbench {

using namespace resex;
using namespace resex::sim::literals;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Results feed this sink so the compiler cannot drop the probed calls.
volatile double g_sink = 0.0;

/// Deterministic probe inputs (xorshift64).
struct Lcg {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() noexcept {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

/// EventQueue hold model: `depth` pending events, each pop followed by a
/// push a random short delay later. ns per push+pop pair.
double queue_probe(std::size_t depth, std::size_t ops) {
  sim::EventQueue q;
  Lcg rng;
  for (std::size_t i = 0; i < depth; ++i) (void)q.push(rng.next() % 1000, [] {});
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const auto ev = q.pop();
    (void)q.push(ev->time + 1 + rng.next() % 1000, [] {});
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + static_cast<double>(q.size());
  return ns / static_cast<double>(ops);
}

/// Coroutine delay chain: ns per suspend/resume through the kernel.
double resume_probe(int resumes) {
  sim::Simulation s;
  s.spawn([](sim::Simulation& sim, int n) -> sim::Task {
    for (int i = 0; i < n; ++i) co_await sim.delay(1_us);
  }(s, resumes));
  const auto t0 = Clock::now();
  s.run();
  const double ns = ns_since(t0);
  g_sink = g_sink + static_cast<double>(s.events_processed());
  return ns / resumes;
}

struct Endpoint {
  hv::Domain* domain = nullptr;
  std::unique_ptr<fabric::Verbs> verbs;
  fabric::CompletionQueue* send_cq = nullptr;
  fabric::QueuePair* qp = nullptr;
  mem::GuestAddr buf = 0;
  mem::RegisteredRegion mr;
};

Endpoint make_endpoint(hv::Node& node, fabric::Hca& hca, const char* name,
                       std::size_t bytes) {
  Endpoint ep;
  ep.domain = &node.create_domain({.name = name, .mem_pages = 2048});
  ep.verbs = std::make_unique<fabric::Verbs>(hca, *ep.domain);
  const std::uint32_t pd = hca.alloc_pd(*ep.domain);
  ep.send_cq = &hca.create_cq(*ep.domain, 1024);
  auto& recv_cq = hca.create_cq(*ep.domain, 1024);
  ep.qp = &hca.create_qp(*ep.domain, pd, *ep.send_cq, recv_cq);
  ep.buf = ep.domain->allocator().allocate(bytes, mem::kPageSize);
  ep.mr = hca.reg_mr(pd, *ep.domain, ep.buf, bytes,
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                         mem::Access::kRemoteRead);
  return ep;
}

/// Closed-loop RDMA writer keeping `depth` writes of `bytes` in flight.
sim::Task writer(Endpoint& src, const Endpoint& dst, std::uint32_t bytes,
                 std::uint32_t depth, std::uint64_t& completed) {
  std::uint64_t wr_id = 0;
  auto post = [&]() -> sim::Task {
    fabric::SendWr wr;
    wr.wr_id = ++wr_id;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = bytes;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await src.verbs->post_send(*src.qp, std::move(wr));
  };
  for (std::uint32_t i = 0; i < depth; ++i) co_await post();
  for (;;) {
    const fabric::Cqe cqe = co_await src.verbs->next_cqe(*src.send_cq);
    if (cqe.status != 0) co_return;
    ++completed;
    co_await post();
  }
}

struct FlowProbe {
  double ns_per_traversal = 0.0;
  double ns_per_post = 0.0;
};

/// One RDMA-write flow between the two hosts of a star, on the single-lane
/// or the lane-indexed (qos) datapath.
FlowProbe flow_probe(bool lanes, std::uint32_t bytes, std::uint32_t depth,
                     sim::SimDuration horizon) {
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.pcpus_per_node = 2;
  if (lanes) {
    qos::QosConfig q;
    q.enabled = true;
    q.apply(cfg.fabric);
  }
  cluster::Cluster cl(cfg);
  Endpoint src = make_endpoint(cl.node(0), cl.hca(0), "probe_src", bytes);
  Endpoint dst = make_endpoint(cl.node(1), cl.hca(1), "probe_dst", bytes);
  fabric::Fabric::connect(*src.qp, *dst.qp);
  std::uint64_t completed = 0;
  cl.sim().spawn(writer(src, dst, bytes, depth, completed));
  const auto t0 = Clock::now();
  cl.sim().run_until(horizon);
  const double ns = ns_since(t0);
  const double traversals =
      static_cast<double>(cl.hca(0).uplink().packets_sent() +
                          cl.hca(1).downlink().packets_sent());
  FlowProbe out;
  out.ns_per_traversal = traversals > 0.0 ? ns / traversals : 0.0;
  out.ns_per_post =
      completed > 0 ? ns / static_cast<double>(completed) : 0.0;
  return out;
}

/// Dense next-hop lookup + ECMP hash on fattree_scaleout's shape: four
/// leaves, two spines, both spines a candidate between any two leaves.
double routing_probe(std::size_t ops) {
  constexpr std::uint32_t kLeaves = 4;
  constexpr std::uint32_t kSpines = 2;
  int ports[kSpines] = {};
  routing::NextHopTable<int> table;
  for (std::uint32_t at = 0; at < kLeaves; ++at) {
    for (std::uint32_t dst = 0; dst < kLeaves; ++dst) {
      if (at == dst) continue;
      for (std::uint32_t k = 0; k < kSpines; ++k) {
        const std::uint32_t s = (dst + k) % kSpines;
        table.add(at, dst, {kLeaves + s, &ports[s]});
      }
    }
  }
  table.compile(kLeaves + kSpines);
  Lcg rng;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next();
    const auto at = static_cast<std::uint32_t>(r % kLeaves);
    const auto dst = static_cast<std::uint32_t>((at + 1 + (r >> 8) % (kLeaves - 1)) %
                                                kLeaves);
    const auto span = table.lookup(at, dst);
    const auto qp = static_cast<std::uint32_t>(r >> 16);
    acc += span[static_cast<std::uint32_t>(routing::ecmp_hash(qp, 1, 1) %
                                           span.count)]
               .via;
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + static_cast<double>(acc);
  return ns / static_cast<double>(ops);
}

/// SliceSchedule::advance on a 30%-capped 10 ms slice, the interferer's
/// schedule under FreeMarket.
double advance_probe(std::size_t ops) {
  const hv::SliceSchedule sched(hv::kDefaultSlice, 0, 3_ms);
  Lcg rng;
  sim::SimTime acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next();
    acc += sched.advance(r % 1'000'000'000ULL, (r >> 32) % 200'000);
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + static_cast<double>(acc);
  return ns / static_cast<double>(ops);
}

/// RequestProcessor::process for the reporting VM's request: a quote over
/// 80 instruments.
double finance_probe(int ops) {
  finance::RequestProcessor proc(1);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < ops; ++i) {
    acc += proc.process(finance::RequestKind::kQuote, 80).checksum;
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + acc;
  return ns / ops;
}

/// IbMon::sample_now on paper_2vm's rings: the reporting and interfering
/// servers' CQs, sampled every 100 us of simulated traffic. Only the
/// sample_now calls are timed.
double ibmon_probe(int samples) {
  core::Testbed tb;
  auto& rep = tb.deploy_pair(core::reporting_config(), "rep0");
  auto& intf = tb.deploy_pair(core::interferer_config(), "intf");
  ibmon::IbMon mon(tb.sim(), {.sample_period = 100_us,
                              .mtu_bytes = tb.fabric().config().mtu_bytes});
  for (auto* pair : {&rep, &intf}) {
    hv::Domain& dom = pair->server_domain();
    dom.memory().set_foreign_mappable(true);
    mon.watch_domain(dom, tb.hca_a().domain_cqs(dom.id()));
  }
  double ns = 0.0;
  for (int i = 0; i < samples; ++i) {
    tb.sim().run_for(100_us);
    const auto t0 = Clock::now();
    mon.sample_now();
    ns += ns_since(t0);
  }
  g_sink = g_sink + static_cast<double>(mon.samples_taken());
  return ns / samples;
}

}  // namespace

std::map<std::string, double> run_probes(SpanRecorder& spans) {
  std::map<std::string, double> out;
  auto probe = [&](const std::string& name, auto&& fn) {
    ScopedSpan span(spans, "probe." + name);
    out[name] = fn();
  };
  probe("sim.queue_ns.shallow", [] { return queue_probe(64, 2'000'000); });
  probe("sim.queue_ns.deep", [] { return queue_probe(16384, 1'000'000); });
  probe("sim.resume_ns", [] { return resume_probe(500'000); });
  probe("fabric.traversal_ns.single_lane", [] {
    return flow_probe(false, 64 * 1024, 2, 20_ms).ns_per_traversal;
  });
  probe("fabric.traversal_ns.lanes", [] {
    return flow_probe(true, 64 * 1024, 2, 20_ms).ns_per_traversal;
  });
  probe("hca.post_ns",
        [] { return flow_probe(false, 64, 1, 5_ms).ns_per_post; });
  probe("routing.lookup_ns", [] { return routing_probe(5'000'000); });
  probe("hv.advance_ns", [] { return advance_probe(5'000'000); });
  probe("ibmon.sample_ns", [] { return ibmon_probe(2000); });
  probe("finance.process_ns", [] { return finance_probe(2000); });
  return out;
}

}  // namespace simbench
