#include "benchex/server.hpp"

#include <utility>

namespace resex::benchex {

Server::Server(Endpoint endpoint, const BenchExConfig& config,
               LatencyAgent* agent)
    : config_(config), agent_(agent), processor_(config.seed) {
  endpoints_.push_back(std::move(endpoint));
}

sim::Task Server::run() {
  return serve(endpoints_.back(), !std::exchange(stocked_, true));
}

sim::Task Server::move_to(Endpoint endpoint) {
  endpoints_.push_back(std::move(endpoint));
  stocked_ = true;
  co_await post_ring_receives(endpoints_.back(), config_.ring_slots);
}

sim::Task Server::serve(Endpoint& ep, bool stock) {
  auto& verbs = *ep.verbs;
  auto& sim = verbs.vcpu().simulation();

  // Stock the receive queue: one credit per ring slot.
  if (stock) co_await post_ring_receives(ep, config_.ring_slots);

  for (;;) {
    // --- request arrival (PTime starts at the HCA's CQE DMA timestamp) ----
    const fabric::Cqe req_cqe = co_await verbs.next_cqe(*ep.recv_cq);
    if (req_cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      // Flushed/errored receive (the QP died): recycle the credit.
      co_await verbs.post_recv(*ep.qp, fabric::RecvWr{.wr_id = req_cqe.wr_id});
      continue;
    }
    const sim::SimTime arrived = req_cqe.timestamp_ns;
    const sim::SimTime dequeued = sim.now();
    // Replenish the receive credit immediately so back-to-back requests are
    // never RNR-dropped.
    co_await verbs.post_recv(*ep.qp, fabric::RecvWr{.wr_id = req_cqe.wr_id});

    const std::uint32_t slot = req_cqe.imm_data;
    const auto req = ep.domain->memory().read_obj<RequestHeader>(
        ep.slot_addr(slot, config_.buffer_bytes));

    // --- processing (CTime): real pricing math + modelled CPU cost --------
    const auto result = processor_.process(
        static_cast<finance::RequestKind>(req.kind), req.instruments);
    co_await verbs.vcpu().consume(result.cpu_cost);
    const sim::SimTime processed = sim.now();

    // --- response (WTime: post -> completion observed) ---------------------
    ResponseHeader resp;
    resp.seq = req.seq;
    resp.client_ts = req.client_ts;
    resp.server_done_ts = processed;
    resp.checksum = result.checksum;

    fabric::SendWr wr;
    wr.wr_id = req.seq;
    wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
    wr.local_addr = ep.slot_addr(slot, config_.buffer_bytes);
    wr.lkey = ep.ring_mr.lkey;
    wr.length = config_.buffer_bytes;
    wr.remote_addr = ep.peer_slot_addr(slot, config_.buffer_bytes);
    wr.rkey = ep.peer_rkey;
    wr.imm_data = slot;
    wr.header = to_bytes(resp);
    co_await verbs.post_send(*ep.qp, wr);

    const fabric::Cqe send_cqe = co_await verbs.next_cqe(*ep.send_cq);
    const sim::SimTime completed = sim.now();
    if (send_cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      ++metrics_.send_errors;
      continue;
    }

    // --- accounting ---------------------------------------------------------
    const double ptime = sim::to_us(dequeued - arrived);
    const double ctime = sim::to_us(processed - dequeued);
    const double wtime = sim::to_us(completed - processed);
    double total = ptime + ctime + wtime;

    if (agent_ != nullptr) {
      // Reporting costs ~10 us of server CPU; the paper includes it in the
      // reported latency.
      co_await verbs.vcpu().consume(config_.agent_report_cost);
      total += sim::to_us(config_.agent_report_cost);
      agent_->report(total);
    }

    ++metrics_.requests;
    metrics_.checksum += result.checksum;
    if (sim.now() >= config_.metrics_start) {
      metrics_.ptime_us.add(ptime);
      metrics_.ctime_us.add(ctime);
      metrics_.wtime_us.add(wtime);
      metrics_.total_us.add(total);
    }
  }
}

}  // namespace resex::benchex
