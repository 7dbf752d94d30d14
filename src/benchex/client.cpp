#include "benchex/client.hpp"

#include <algorithm>

namespace resex::benchex {

Client::Client(Endpoint endpoint, const BenchExConfig& config, Stamp stamp)
    : ep_(std::move(endpoint)), config_(config), stamp_(stamp),
      arrivals_(config.arrivals, sim::Rng::stream(config.seed, 0xC11)),
      mix_rng_(sim::Rng::stream(config.seed, 0xC12)),
      mix_(trace::RequestMix::exchange_default()),
      credit_(std::make_unique<sim::Trigger>(
          ep_.verbs->vcpu().simulation())) {}

std::uint32_t Client::queue_depth_limit() const {
  if (config_.queue_depth != 0) {
    return std::min(config_.queue_depth, config_.ring_slots);
  }
  return config_.mode == LoadMode::kClosedLoop ? 1 : config_.ring_slots;
}

void Client::resume() {
  if (!suspended_) return;
  suspended_ = false;
  credit_->fire();
}

sim::Task Client::wait_quiescent() {
  while (outstanding_ > 0) co_await credit_->wait();
}

sim::Task Client::send_one(sim::SimTime stamp) {
  auto& verbs = *ep_.verbs;

  finance::RequestKind kind = config_.kind;
  std::uint32_t instruments = config_.instruments;
  if (config_.use_mix) {
    const auto draw = mix_.sample(mix_rng_);
    kind = draw.kind;
    instruments = draw.instruments;
  }

  const std::uint64_t seq = next_seq_++;
  const auto slot = static_cast<std::uint32_t>(seq % config_.ring_slots);

  RequestHeader req;
  req.seq = seq;
  req.client_ts = stamp;
  req.instruments = instruments;
  req.kind = static_cast<std::uint8_t>(kind);
  req.payload_len = config_.buffer_bytes;

  fabric::SendWr wr;
  wr.wr_id = seq;
  wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
  wr.local_addr = ep_.slot_addr(slot, config_.buffer_bytes);
  wr.lkey = ep_.ring_mr.lkey;
  wr.length = config_.buffer_bytes;
  wr.remote_addr = ep_.peer_slot_addr(slot, config_.buffer_bytes);
  wr.rkey = ep_.peer_rkey;
  wr.imm_data = slot;
  wr.header = to_bytes(req);
  // Requests are unsignaled: the client's completion signal is the response
  // itself, so it never drains its send CQ (errors still produce CQEs).
  wr.signaled = false;

  ++outstanding_;
  ++metrics_.sent;
  co_await verbs.post_send(*ep_.qp, wr);
}

sim::Task Client::run_sender() {
  auto& sim = ep_.verbs->vcpu().simulation();
  const std::uint32_t depth = queue_depth_limit();

  if (config_.mode == LoadMode::kOpenLoop) {
    sim::SimTime next_at = sim.now() + arrivals_.initial_phase();
    for (;;) {
      next_at += arrivals_.next_gap();
      co_await sim.at(next_at);
      while (suspended_ || outstanding_ >= depth) co_await credit_->wait();
      co_await send_one(stamp_ == Stamp::kIntendedArrival ? next_at
                                                          : sim.now());
    }
  } else {
    for (;;) {
      while (suspended_ || outstanding_ >= depth) co_await credit_->wait();
      if (config_.think_time > 0) co_await sim.delay(config_.think_time);
      co_await send_one(sim.now());
    }
  }
}

sim::Task Client::run_receiver() {
  auto& verbs = *ep_.verbs;
  auto& sim = verbs.vcpu().simulation();

  co_await post_ring_receives(ep_, config_.ring_slots);

  for (;;) {
    const fabric::Cqe cqe = co_await verbs.next_cqe(*ep_.recv_cq);
    co_await verbs.post_recv(*ep_.qp, fabric::RecvWr{.wr_id = cqe.wr_id});
    // An errored response (the QP died) still ends its request: release the
    // credit, or a closed-loop sender would stall at its depth forever.
    if (outstanding_ > 0) --outstanding_;
    credit_->fire();
    if (cqe.status != static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      ++metrics_.errors;
      continue;
    }
    const auto resp = ep_.domain->memory().read_obj<ResponseHeader>(
        ep_.slot_addr(cqe.imm_data, config_.buffer_bytes));
    ++metrics_.received;
    if (sim.now() >= config_.metrics_start) {
      metrics_.latency_us.add(sim::to_us(sim.now() - resp.client_ts));
    }
  }
}

}  // namespace resex::benchex
