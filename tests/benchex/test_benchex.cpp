#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace resex::benchex {
namespace {

using namespace resex::sim::literals;
using core::interferer_config;
using core::reporting_config;
using core::Testbed;

TEST(BenchExBase, PairServesRequestsWithStableLatency) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(300_ms);

  const auto& sm = pair.server().metrics();
  const auto& cm = pair.client().metrics();
  EXPECT_GT(sm.requests, 500u);
  EXPECT_EQ(sm.send_errors, 0u);
  EXPECT_EQ(cm.errors, 0u);
  EXPECT_NEAR(static_cast<double>(cm.received),
              static_cast<double>(cm.sent), 16.0);

  // Latency in the neighbourhood of the paper's ~209 us, and very stable.
  EXPECT_GT(cm.latency_us.mean(), 120.0);
  EXPECT_LT(cm.latency_us.mean(), 350.0);
  EXPECT_LT(cm.latency_us.stddev(), 0.1 * cm.latency_us.mean());
}

TEST(BenchExBase, ServerDecompositionIsConsistent) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(200_ms);
  const auto& sm = pair.server().metrics();
  ASSERT_GT(sm.total_us.count(), 0u);
  // total = ptime + ctime + wtime + agent reporting overhead (10 us).
  const double sum = sm.ptime_us.mean() + sm.ctime_us.mean() +
                     sm.wtime_us.mean() + 10.0;
  EXPECT_NEAR(sm.total_us.mean(), sum, 0.5);
  // CTime matches the cost model: 5 us base + 80 * 0.8 us.
  EXPECT_NEAR(sm.ctime_us.mean(), 69.0, 2.0);
  // WTime is dominated by the 64 KiB serialization (~61 us @ 1 GiB/s).
  EXPECT_GT(sm.wtime_us.mean(), 55.0);
  EXPECT_LT(sm.wtime_us.mean(), 80.0);
  EXPECT_NE(sm.checksum, 0.0);
}

TEST(BenchExBase, OpenLoopRateIsHonoured) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(64 * 1024, 1000.0), "64KB");
  tb.sim().run_until(500_ms);
  const auto& cm = pair.client().metrics();
  EXPECT_NEAR(static_cast<double>(cm.sent), 500.0, 10.0);
}

TEST(BenchExBase, ClosedLoopRespectsQueueDepth) {
  Testbed tb;
  auto& pair = tb.deploy_pair(interferer_config(256 * 1024, 2), "intf");
  tb.sim().run_until(50_ms);
  EXPECT_LE(pair.client().outstanding(), 2u);
  EXPECT_GT(pair.client().metrics().received, 20u);
}

TEST(BenchExBase, AgentReceivesReportsAndAddsCost) {
  Testbed tb;
  auto& with = tb.deploy_pair(reporting_config(), "with-agent", true);
  tb.sim().run_until(100_ms);
  const auto snap = with.agent().snapshot();
  EXPECT_EQ(snap.reports, with.server().metrics().requests);
  EXPECT_GT(snap.mean_us, 0.0);
  EXPECT_NEAR(snap.mean_us, with.server().metrics().total_us.mean(), 5.0);
}

TEST(BenchExBase, NoAgentMeansNoReportingOverhead) {
  Testbed tb1, tb2;
  auto& with = tb1.deploy_pair(reporting_config(), "a", true);
  auto& without = tb2.deploy_pair(reporting_config(), "b", false);
  tb1.sim().run_until(100_ms);
  tb2.sim().run_until(100_ms);
  EXPECT_NEAR(with.server().metrics().total_us.mean() - 10.0,
              without.server().metrics().total_us.mean(), 2.0);
}

TEST(BenchExBase, WarmupDiscardsEarlySamples) {
  auto cfg = reporting_config();
  cfg.metrics_start = 50_ms;
  Testbed tb;
  auto& pair = tb.deploy_pair(cfg, "warm");
  tb.sim().run_until(100_ms);
  const auto& sm = pair.server().metrics();
  EXPECT_GT(sm.requests, sm.total_us.count());
}

TEST(BenchExBase, MixedWorkloadRuns) {
  auto cfg = reporting_config();
  cfg.use_mix = true;
  cfg.arrivals.kind = trace::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 1000.0;
  Testbed tb;
  auto& pair = tb.deploy_pair(cfg, "mixed");
  tb.sim().run_until(200_ms);
  EXPECT_GT(pair.server().metrics().requests, 100u);
  EXPECT_EQ(pair.server().metrics().send_errors, 0u);
}

TEST(BenchExBase, DeterministicAcrossRuns) {
  auto run_once = [] {
    Testbed tb;
    auto& pair = tb.deploy_pair(reporting_config(), "64KB");
    tb.sim().run_until(100_ms);
    return std::pair{pair.client().metrics().latency_us.mean(),
                     pair.server().metrics().checksum};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// --- faults: a dead QP ends requests, it does not create them --------------

TEST(BenchExFaults, ServerSkipsFlushedReceives) {
  // Kill the server's QP between requests: its receive queue is flushed.
  // A flushed receive carries no request, so the server must not price
  // stale slot contents or post a response on the dead QP.
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(50_ms);
  const auto requests = pair.server().metrics().requests;
  auto& qp = *pair.server().endpoint().qp;
  qp.set_error();
  tb.hca_a().flush_recv_queue(qp);
  tb.sim().run_until(80_ms);
  const auto& sm = pair.server().metrics();
  EXPECT_EQ(sm.send_errors, 0u);
  EXPECT_EQ(sm.requests, requests);
}

TEST(BenchExFaults, ErroredResponseReleasesItsCredit) {
  // Kill a closed-loop client's QP: each flushed receive ends a request, so
  // the sender gets its credits back instead of stalling at its depth.
  Testbed tb;
  auto& pair = tb.deploy_pair(interferer_config(256 * 1024, 2), "intf");
  tb.sim().run_until(20_ms);
  const auto sent = pair.client().metrics().sent;
  auto& qp = *pair.client().endpoint().qp;
  qp.set_error();
  tb.hca_b().flush_recv_queue(qp);
  tb.sim().run_until(40_ms);
  const auto& cm = pair.client().metrics();
  EXPECT_EQ(cm.errors, pair.config().ring_slots);
  EXPECT_GT(cm.sent, sent);
}

TEST(BenchExFaults, SuspendedClientQuiescesThroughErroredResponses) {
  Testbed tb;
  auto& pair = tb.deploy_pair(interferer_config(256 * 1024, 2), "intf");
  tb.sim().run_until(20_ms);
  Client& client = pair.client();
  client.suspend();
  const auto sent = client.metrics().sent;
  auto& qp = *client.endpoint().qp;
  qp.set_error();
  tb.hca_b().flush_recv_queue(qp);
  bool quiescent = false;
  tb.sim().spawn([](Client& c, bool& done) -> sim::Task {
    co_await c.wait_quiescent();
    done = true;
  }(client, quiescent));
  tb.sim().run_until(40_ms);
  EXPECT_TRUE(quiescent);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.metrics().sent, sent);  // the gate held
  client.resume();
  tb.sim().run_until(41_ms);
  EXPECT_EQ(client.metrics().sent, sent + 2);
}

TEST(BenchExMove, ServerKeepsItsMetricsAcrossAMove) {
  // Move the server to a fresh domain + endpoint mid-run, as a live
  // migration does: the old loop stays parked on the old CQs and the new
  // one continues the same metrics series.
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(50_ms);
  pair.client().suspend();
  tb.sim().run_until(55_ms);
  ASSERT_EQ(pair.client().outstanding(), 0u);
  const auto requests = pair.server().metrics().requests;
  const auto reports = pair.agent().reports();

  hv::Domain& dom = tb.node_a().create_domain(
      {.name = "64KB/server.m1", .mem_pages = pair.config().guest_pages()});
  Endpoint ep = make_endpoint(tb.hca_a(), dom, pair.config());
  connect(ep, pair.client().endpoint());
  tb.sim().spawn([](Server& server, Endpoint moved) -> sim::Task {
    co_await server.move_to(std::move(moved));
    server.endpoint().verbs->vcpu().simulation().spawn(server.run());
  }(pair.server(), std::move(ep)));
  tb.sim().run_until(56_ms);
  pair.client().resume();
  tb.sim().run_until(100_ms);

  EXPECT_EQ(pair.server().moves(), 1u);
  EXPECT_EQ(&pair.server_domain(), &dom);
  const auto& sm = pair.server().metrics();
  EXPECT_GT(sm.requests, requests + 50);
  EXPECT_EQ(sm.send_errors, 0u);
  EXPECT_GT(pair.agent().reports(), reports);
  EXPECT_EQ(pair.client().metrics().errors, 0u);
}

// --- stamping ----------------------------------------------------------------

double max_latency_after_stall(Stamp stamp) {
  // An open-loop client suspended for 5 ms: its arrivals keep accruing and
  // go out as a burst on resume.
  Testbed tb;
  BenchPair pair(tb.hca_a(), tb.hca_b(), reporting_config(), "64KB", true,
                 stamp);
  pair.start();
  tb.sim().run_until(20_ms);
  pair.client().suspend();
  tb.sim().run_until(25_ms);
  pair.client().resume();
  tb.sim().run_until(60_ms);
  return pair.client().metrics().latency_us.max();
}

TEST(BenchExStamp, IntendedArrivalCarriesTheStallSendTimeDoesNot) {
  // The first arrival of the stall waits the 5 ms less at most one 0.5 ms
  // gap; stamped at send time, only the burst's queueing (~1.5 ms) shows.
  EXPECT_GT(max_latency_after_stall(Stamp::kIntendedArrival), 4000.0);
  EXPECT_LT(max_latency_after_stall(Stamp::kSendTime), 4000.0);
}

struct InterferenceResult {
  double mean_us;
  double stddev_us;
  double wtime_us;
  double ptime_us;
  double ctime_us;
};

InterferenceResult run_scenario(bool with_interferer, double intf_cap = 100.0,
                                std::uint32_t intf_buffer = 2 * 1024 * 1024) {
  Testbed tb;
  auto& rep = tb.deploy_pair(reporting_config(), "64KB");
  if (with_interferer) {
    auto& intf = tb.deploy_pair(interferer_config(intf_buffer), "intf");
    if (intf_cap < 100.0) {
      tb.node_a().scheduler().set_cap(intf.server_domain().vcpu(), intf_cap);
    }
  }
  tb.sim().run_until(400_ms);
  const auto& sm = rep.server().metrics();
  return InterferenceResult{rep.client().metrics().latency_us.mean(),
                            rep.client().metrics().latency_us.stddev(),
                            sm.wtime_us.mean(), sm.ptime_us.mean(),
                            sm.ctime_us.mean()};
}

TEST(BenchExInterference, InterfererInflatesLatencyAndJitter) {
  const auto base = run_scenario(false);
  const auto intf = run_scenario(true);
  // The paper's Figure 1: mean shifts right and the distribution spreads.
  EXPECT_GT(intf.mean_us, 1.25 * base.mean_us)
      << "base=" << base.mean_us << " intf=" << intf.mean_us;
  EXPECT_GT(intf.stddev_us, 4.0 * base.stddev_us);
  // WTime absorbs the device-level contention; CTime stays flat (Figure 2).
  EXPECT_GT(intf.wtime_us, 1.5 * base.wtime_us);
  EXPECT_NEAR(intf.ctime_us, base.ctime_us, 2.0);
}

TEST(BenchExInterference, CappingInterfererRestoresLatency) {
  const auto base = run_scenario(false);
  const auto uncapped = run_scenario(true, 100.0);
  // Buffer ratio 2MB/64KB = 32 -> cap 100/32 ~= 3% (the paper's Figure 4
  // equalization point).
  const auto capped = run_scenario(true, 3.125);
  EXPECT_LT(capped.mean_us, uncapped.mean_us);
  // Near-base latency once the cap matches the buffer ratio.
  EXPECT_LT(capped.mean_us, 1.25 * base.mean_us)
      << "base=" << base.mean_us << " capped=" << capped.mean_us
      << " uncapped=" << uncapped.mean_us;
}

TEST(BenchExInterference, EqualPairsBarelyInterfere) {
  // Figure 8's 64KB-64KB case: two identical latency-sensitive VMs coexist.
  Testbed tb;
  auto& p1 = tb.deploy_pair(reporting_config(64 * 1024, 2000.0, 1), "r1");
  auto& p2 = tb.deploy_pair(reporting_config(64 * 1024, 2000.0, 2), "r2");
  tb.sim().run_until(400_ms);
  const auto solo = run_scenario(false);
  EXPECT_LT(p1.client().metrics().latency_us.mean(), 1.15 * solo.mean_us);
  EXPECT_LT(p2.client().metrics().latency_us.mean(), 1.15 * solo.mean_us);
}

}  // namespace
}  // namespace resex::benchex
