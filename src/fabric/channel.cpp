#include "fabric/channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "fabric/queue_pair.hpp"

namespace resex::fabric {

Channel::Channel(sim::Simulation& sim, const FabricConfig& config,
                 std::string name)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      qos_on_(config.qos_enabled),
      num_lanes_(config.qos_enabled ? config.num_vls : 1) {
  qos::VlArbiterConfig acfg;
  acfg.num_vls = num_lanes_;
  acfg.high_mask = config_.vl_high_mask;
  acfg.hi_limit = config_.vl_hi_limit;
  for (std::size_t vl = 0; vl < qos::kMaxVls; ++vl) {
    acfg.weight[vl] = config_.vl_weight[vl];
  }
  arbiter_ = qos::VlArbiter(acfg);
  // Pull-style gauges: evaluated only when a driver snapshots the registry,
  // so the packet path pays nothing for them. The channel outlives any
  // snapshot taken while its scenario runs.
  const std::string prefix = "fabric." + name_;
  auto& metrics = sim_.metrics();
  metrics.gauge_fn(prefix + ".packets_sent", [this] {
    return static_cast<double>(packets_sent_);
  });
  metrics.gauge_fn(prefix + ".bytes_sent",
                   [this] { return static_cast<double>(bytes_sent_); });
  metrics.gauge_fn(prefix + ".busy_ns",
                   [this] { return static_cast<double>(busy_time_); });
  metrics.gauge_fn(prefix + ".backlog_packets", [this] {
    return static_cast<double>(backlog_packets());
  });
  metrics.gauge_fn(prefix + ".packets_dropped", [this] {
    return static_cast<double>(packets_dropped_);
  });
  metrics.gauge_fn(prefix + ".packets_corrupted", [this] {
    return static_cast<double>(packets_corrupted_);
  });
}

void Channel::configure_switch_port(SwitchBufferPool* pool,
                                    const std::vector<Channel*>* upstreams) {
  switch_port_ = true;
  pool_ = pool;
  upstreams_ = upstreams;
  if (!config_.congestion_enabled()) return;
  byte_mode_ = config_.byte_occupancy();
  pfc_on_ = config_.pfc_enabled;
  // In byte mode the packet-denominated ECN thresholds scale by the MTU, so
  // --ecn-kmin/--ecn-kmax keep their meaning under either accounting.
  const std::uint64_t unit = byte_mode_ ? config_.mtu_bytes : 1;
  ecn_configured_ = config_.ecn_kmax_pkts > 0;
  if (ecn_configured_) {
    // One marker per lane: each lane ramps against its own occupancy with
    // the same configured thresholds, so marking on a hot bulk lane never
    // taxes an idle latency lane.
    for (Lane& lane : lanes_) {
      lane.ecn = EcnMarker(config_.ecn_kmin_pkts * unit,
                           config_.ecn_kmax_pkts * unit);
    }
  }
  // Fabric-wide aggregates plus per-port gauges, registered only when
  // congestion is configured so default runs export an unchanged metric set.
  auto& metrics = sim_.metrics();
  buf_drops_total_ = &metrics.counter("fabric.buf_drops");
  ecn_marks_total_ = &metrics.counter("fabric.ecn_marks");
  occupancy_hist_ = &metrics.histogram(byte_mode_
                                           ? "fabric.port_occupancy_bytes"
                                           : "fabric.port_occupancy_pkts");
  if (config_.qos_enabled) {
    // Per-lane occupancy seen by each arrival, fabric-wide: the isolation
    // signal (latency-lane occupancy staying flat under a bulk storm).
    vl_occupancy_hist_ = &metrics.histogram("fabric.vl_occupancy");
  }
  const std::string prefix = "fabric." + name_;
  metrics.gauge_fn(prefix + ".buf_drops",
                   [this] { return static_cast<double>(buf_drops_); });
  metrics.gauge_fn(prefix + ".ecn_marks",
                   [this] { return static_cast<double>(ecn_marks_); });
  if (pfc_on_) {
    pauses_total_ = &metrics.counter("fabric.pfc_pauses");
    pause_dur_hist_ = &metrics.histogram("fabric.pause_duration_ns");
    metrics.gauge_fn(prefix + ".pauses_sent",
                     [this] { return static_cast<double>(pauses_sent_); });
    metrics.gauge_fn(prefix + ".paused_ns", [this] {
      return static_cast<double>(paused_time());
    });
  }
}

std::uint64_t Channel::occupancy_units(const Lane& lane) const noexcept {
  return byte_mode_ ? lane.backlog_bytes : lane.backlog_pkts;
}

std::uint64_t Channel::capacity_units() {
  std::uint64_t cap = 0;
  if (pool_ != nullptr) {
    // The shared pool's dynamic threshold replaces any fixed per-port cap.
    cap = pool_->threshold();
  } else if (byte_mode_) {
    cap = config_.port_buffer_bytes;
  } else {
    cap = config_.port_buffer_pkts;
  }
  if (fault_hook_ != nullptr) {
    if (const std::uint32_t squeeze = fault_hook_->buffer_limit(*this);
        squeeze > 0) {
      cap = byte_mode_ ? std::uint64_t{squeeze} * config_.mtu_bytes : squeeze;
    }
  }
  // The Choudhury-Hahne threshold is a per-queue bound and each lane is its
  // own queue against the shared free pool, so the pool threshold is not
  // divided; fixed per-port caps (and fault squeezes) are partitioned
  // statically across the lanes.
  if (pool_ == nullptr && cap > 0) {
    cap = std::max<std::uint64_t>(cap / num_lanes_, 1);
  }
  return cap;
}

sim::SimDuration Channel::vl_paused_time(std::uint8_t vl) const noexcept {
  if (vl >= qos::kMaxVls) return 0;
  const Lane& lane = lanes_[vl];
  sim::SimDuration total = lane.paused_time;
  if (lane.pause_refs > 0) total += sim_.now() - lane.paused_since;
  return total;
}

sim::SimDuration Channel::paused_time() const noexcept {
  sim::SimDuration total = 0;
  for (std::uint8_t vl = 0; vl < num_lanes_; ++vl) total += vl_paused_time(vl);
  return total;
}

void Channel::pause_vls(std::uint8_t mask) {
  for (std::uint8_t vl = 0; vl < num_lanes_; ++vl) {
    if ((mask & (1u << vl)) == 0) continue;
    if (lanes_[vl].pause_refs++ == 0) lanes_[vl].paused_since = sim_.now();
  }
}

void Channel::resume_vls(std::uint8_t mask) {
  bool freed = false;
  for (std::uint8_t vl = 0; vl < num_lanes_; ++vl) {
    Lane& lane = lanes_[vl];
    if ((mask & (1u << vl)) == 0 || lane.pause_refs == 0) continue;
    if (--lane.pause_refs > 0) continue;
    const sim::SimDuration dur = sim_.now() - lane.paused_since;
    lane.paused_time += dur;
    // Lazily resolved: host uplinks are pause targets without ever having
    // been configured as switch ports, and only PFC runs reach this path.
    if (pause_dur_hist_ == nullptr) {
      pause_dur_hist_ = &sim_.metrics().histogram("fabric.pause_duration_ns");
    }
    pause_dur_hist_->observe(static_cast<std::uint64_t>(dur));
    if (sim_.tracer().enabled()) {
      if (qos_on_) {
        sim_.tracer().complete("fabric.vl_paused", "qos", lane.paused_since,
                               dur);
      } else {
        sim_.tracer().complete("fabric.paused", "congestion",
                               lane.paused_since, dur);
      }
    }
    freed = true;
  }
  // One wakeup after the whole bitmap is applied: a resume frame covering
  // several lanes must not arbitrate between partially-updated pause state.
  if (freed && !busy_) try_start();
}

void Channel::set_pause_upstream(std::uint8_t vl, bool pause) {
  lanes_[vl].xoff = pause;
  if (pause) {
    ++pauses_sent_;
    if (pauses_total_ != nullptr) pauses_total_->add();
  }
  if (sim_.tracer().enabled()) {
    const char* event = pause ? "fabric.pause" : "fabric.resume";
    const auto occ = static_cast<double>(occupancy_units(lanes_[vl]));
    if (qos_on_) {
      sim_.tracer().instant(event, "congestion",
                            {"vl", static_cast<double>(vl)}, {"occ", occ});
    } else {
      sim_.tracer().instant(event, "congestion", {"occ", occ});
    }
  }
  if (upstreams_ == nullptr) return;
  // The pause frame travels one hop upstream and carries the class bitmap:
  // every channel feeding this port's switch gates (or resumes) this lane
  // after the wire delay — other lanes keep flowing through it.
  const auto mask = static_cast<std::uint8_t>(1u << vl);
  for (Channel* up : *upstreams_) {
    sim_.schedule_in(config_.propagation_delay, [up, mask, pause] {
      if (pause) {
        up->pause_vls(mask);
      } else {
        up->resume_vls(mask);
      }
    });
  }
}

void Channel::check_xoff(std::uint8_t vl) {
  const std::uint64_t cap = capacity_units();
  if (cap == 0) return;
  auto xoff = static_cast<std::uint64_t>(
      config_.pfc_xoff * static_cast<double>(cap));
  if (xoff == 0) xoff = 1;
  if (occupancy_units(lanes_[vl]) >= xoff) set_pause_upstream(vl, true);
}

void Channel::check_xon(std::uint8_t vl) {
  const std::uint64_t cap = capacity_units();
  const auto xon = static_cast<std::uint64_t>(
      config_.pfc_xon * static_cast<double>(cap));
  if (occupancy_units(lanes_[vl]) <= xon) set_pause_upstream(vl, false);
}

Channel::Flow& Channel::flow_for(QpNum qp, std::uint8_t vl) {
  for (auto& f : flows_) {
    if (f.qp == qp && f.vl == vl) return f;
  }
  Flow nf;
  nf.qp = qp;
  nf.vl = vl;
  // A QP appearing on a new lane keeps its configured arbitration weight and
  // rate-limit parameters (with a fresh bucket): weight and rate are per-QP
  // knobs, the lane is a per-packet property.
  for (const auto& f : flows_) {
    if (f.qp != qp) continue;
    nf.weight = f.weight;
    nf.grants_left = f.weight;
    nf.rate_bytes_per_sec = f.rate_bytes_per_sec;
    nf.bucket_cap = f.bucket_cap;
    nf.tokens = f.bucket_cap;
    nf.tokens_updated = sim_.now();
    break;
  }
  flows_.push_back(nf);
  return flows_.back();
}

void Channel::set_flow_weight(QpNum qp, std::uint32_t weight) {
  const std::uint32_t w = std::max<std::uint32_t>(weight, 1);
  bool found = false;
  for (auto& f : flows_) {
    if (f.qp != qp) continue;
    f.weight = w;
    f.grants_left = w;
    found = true;
  }
  if (found) return;
  Flow& f = flow_for(qp);
  f.weight = w;
  f.grants_left = w;
}

std::uint32_t Channel::flow_weight(QpNum qp) const {
  for (const auto& f : flows_) {
    if (f.qp == qp) return f.weight;
  }
  return 1;
}

void Channel::apply_rate_limit(Flow& f, double bytes_per_sec,
                               std::uint32_t burst_bytes) {
  const bool was_limited = f.rate_bytes_per_sec > 0.0;
  if (was_limited) {
    // Settle the bucket at the old rate before switching: a controller that
    // adjusts the rate every few tens of microseconds (DCQCN recovery) must
    // not gift the flow a full burst of tokens per update.
    f.tokens = refilled_tokens(f);
  }
  f.rate_bytes_per_sec = bytes_per_sec;
  f.bucket_cap = static_cast<double>(config_.mtu_bytes) + burst_bytes;
  if (was_limited) {
    f.tokens = std::min(f.tokens, f.bucket_cap);
  } else {
    f.tokens = f.bucket_cap;  // newly limited flows start with a full burst
  }
  f.tokens_updated = sim_.now();
}

void Channel::set_flow_rate_limit(QpNum qp, double bytes_per_sec,
                                  std::uint32_t burst_bytes) {
  if (bytes_per_sec < 0.0) {
    throw std::invalid_argument("Channel: negative rate limit");
  }
  // The limit is per-QP: every lane the QP rides gets the same parameters
  // (each lane keeps its own bucket), matching how DCQCN throttles a QP.
  bool found = false;
  for (auto& f : flows_) {
    if (f.qp != qp) continue;
    apply_rate_limit(f, bytes_per_sec, burst_bytes);
    found = true;
  }
  if (!found) apply_rate_limit(flow_for(qp), bytes_per_sec, burst_bytes);
  if (!busy_) try_start();
}

double Channel::flow_rate_limit(QpNum qp) const {
  for (const auto& f : flows_) {
    if (f.qp == qp) return f.rate_bytes_per_sec;
  }
  return 0.0;
}

double Channel::refilled_tokens(const Flow& f) const {
  return std::min(
      f.bucket_cap,
      f.tokens + f.rate_bytes_per_sec *
                     static_cast<double>(sim_.now() - f.tokens_updated) / 1e9);
}

bool Channel::may_send(Flow& f, std::uint32_t bytes) {
  if (f.rate_bytes_per_sec <= 0.0) return true;
  f.tokens = refilled_tokens(f);
  f.tokens_updated = sim_.now();
  return f.tokens >= static_cast<double>(bytes);
}

sim::SimTime Channel::eligible_at(const Flow& f) const {
  const double needed =
      static_cast<double>(f.packets.front().bytes) - f.tokens;
  if (needed <= 0.0) return sim_.now();
  const double wait_ns = needed / f.rate_bytes_per_sec * 1e9;
  return sim_.now() + static_cast<sim::SimDuration>(wait_ns) + 1;
}

void Channel::enqueue(detail::Packet pkt) {
  if (!sink_) {
    throw std::logic_error("Channel '" + name_ + "': no sink connected");
  }
  // The HCA resolved SL->VL at transfer start; clamp defensively so a stale
  // transfer can never index past the configured lanes.
  const std::uint8_t vl =
      pkt.transfer->vl < num_lanes_ ? pkt.transfer->vl : 0;
  Lane& lane = lanes_[vl];
  if (switch_port_ && (config_.congestion_enabled() || fault_hook_ != nullptr)) {
    // Finite egress buffer, per lane: this packet competes for buffer
    // against its own class only. The packet currently serializing occupies
    // the wire, not the buffer, so capacity is checked against the backlog.
    // A fault-injected buffer squeeze (shared-buffer pressure from outside
    // the simulated world) overrides the configured capacity.
    const std::uint64_t occupancy = occupancy_units(lane);
    const std::uint64_t capacity = capacity_units();
    // Every arrival observes the occupancy it found, admitted or not: a
    // histogram over accepted packets only is biased low under loss. The
    // port histogram records the total backlog, the lane histogram what
    // this arrival's class saw.
    if (occupancy_hist_ != nullptr) {
      occupancy_hist_->observe(byte_mode_ ? backlog_bytes()
                                          : backlog_packets());
    }
    if (vl_occupancy_hist_ != nullptr) {
      vl_occupancy_hist_->observe(occupancy);
    }
    if (capacity > 0 && occupancy >= capacity) {
      ++buf_drops_;
      ++packets_dropped_;  // visible in the per-channel drop gauge too
      if (buf_drops_total_ == nullptr) {
        // A squeeze fault can drop on a fabric with no congestion configured
        // (the gauges were never registered); resolve the aggregate lazily
        // so those drops still surface in metrics snapshots.
        buf_drops_total_ = &sim_.metrics().counter("fabric.buf_drops");
      }
      buf_drops_total_->add();
      if (sim_.tracer().enabled()) {
        trace_congestion("fabric.buf_drop", pkt, vl, occupancy);
      }
      return;  // tail-drop: the RC machinery recovers via NAK/RTO
    }
    // Marking is gated on a *configured* marker: a squeeze fault on a
    // non-congestion run must drop, never mark — there is no controller to
    // react and the default-constructed marker has no thresholds.
    if (ecn_configured_ && !pkt.ecn && lane.ecn.on_enqueue(occupancy)) {
      pkt.ecn = true;
      ++ecn_marks_;
      if (ecn_marks_total_ != nullptr) ecn_marks_total_->add();
      if (sim_.tracer().enabled()) {
        trace_congestion("fabric.ecn_mark", pkt, vl, occupancy);
      }
    }
  }
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(
        "pkt.enqueue", "fabric",
        {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
        {"bytes", static_cast<double>(pkt.bytes)});
    sim_.tracer().counter(name_.c_str(), "backlog",
                          static_cast<double>(backlog_packets() + 1));
  }
  lane.backlog_bytes += pkt.bytes;
  ++lane.backlog_pkts;
  if (pool_ != nullptr) pool_->acquire(pkt.bytes);
  flow_for(pkt.transfer->src_qp->num(), vl).packets.push_back(std::move(pkt));
  // XOFF is evaluated on the lane's post-admission occupancy (this packet
  // counts).
  if (pfc_on_ && !lane.xoff) check_xoff(vl);
  // A lane-paused port may still transmit other lanes, so the pause gate is
  // evaluated inside try_start(), not here.
  if (!busy_) try_start();
}

void Channel::trace_congestion(const char* event, const detail::Packet& pkt,
                               std::uint8_t vl, std::uint64_t occupancy) {
  const double occ = static_cast<double>(occupancy);
  if (qos_on_) {
    sim_.tracer().instant(event, "congestion",
                          {"vl", static_cast<double>(vl)}, {"occ", occ});
  } else {
    sim_.tracer().instant(
        event, "congestion",
        {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
        {"occ", occ});
  }
}

std::uint64_t Channel::backlog_packets() const noexcept {
  std::uint64_t n = 0;
  for (std::uint8_t vl = 0; vl < num_lanes_; ++vl) n += lanes_[vl].backlog_pkts;
  return n;
}

std::uint64_t Channel::backlog_bytes() const noexcept {
  std::uint64_t n = 0;
  for (std::uint8_t vl = 0; vl < num_lanes_; ++vl) {
    n += lanes_[vl].backlog_bytes;
  }
  return n;
}

void Channel::arm_rate_timer() {
  sim::SimTime soonest = ~sim::SimTime{0};
  for (const auto& f : flows_) {
    if (!f.packets.empty() && f.rate_bytes_per_sec > 0.0) {
      soonest = std::min(soonest, eligible_at(f));
    }
  }
  if (soonest == ~sim::SimTime{0}) return;
  rate_timer_.cancel();
  rate_timer_ = sim_.schedule_at(soonest, [this] {
    if (!busy_) try_start();
  });
}

void Channel::launch(Flow& f, std::size_t pos) {
  detail::Packet pkt = std::move(f.packets.front());
  f.packets.pop_front();
  Lane& lane = lanes_[f.vl];
  lane.backlog_bytes -= std::min<std::uint64_t>(lane.backlog_bytes, pkt.bytes);
  if (lane.backlog_pkts > 0) --lane.backlog_pkts;
  if (pool_ != nullptr) pool_->release(pkt.bytes);
  // The departure may have drained this lane below XON: resume upstreams.
  if (lane.xoff) check_xon(f.vl);
  if (f.rate_bytes_per_sec > 0.0) {
    f.tokens -= static_cast<double>(pkt.bytes);
  }
  if (f.grants_left > 1 && !f.packets.empty()) {
    --f.grants_left;
    lane.cursor = pos;  // keep the grant on this flow
  } else {
    f.grants_left = f.weight;
    lane.cursor = pos + 1;
  }

  // Fault injection happens at the instant the packet wins arbitration:
  // a dropped packet still consumes its serialization time (the sender's
  // transmitter does not know the switch will eat it), it just never
  // reaches the sink; a corrupted one is delivered flagged and discarded
  // by the receiving HCA.
  PacketFate fate = PacketFate::kDeliver;
  if (fault_hook_ != nullptr) {
    fate = fault_hook_->on_transmit(*this, pkt);
    if (fate == PacketFate::kDrop) {
      ++packets_dropped_;
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant("pkt.drop", "fault",
                              {"qp", static_cast<double>(f.qp)},
                              {"psn", static_cast<double>(pkt.psn)});
      }
    } else if (fate == PacketFate::kCorrupt) {
      pkt.corrupted = true;
      ++packets_corrupted_;
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant("pkt.corrupt", "fault",
                              {"qp", static_cast<double>(f.qp)},
                              {"psn", static_cast<double>(pkt.psn)});
      }
    }
  }

  busy_ = true;
  const sim::SimDuration tx = config_.serialization_time(pkt.bytes);
  busy_time_ += tx;
  ++packets_sent_;
  bytes_sent_ += pkt.bytes;
  ++lane.grants;
  if (sim_.tracer().enabled()) {
    if (qos_on_) {
      sim_.tracer().instant("qos.arb_grant", "qos",
                            {"vl", static_cast<double>(f.vl)},
                            {"qp", static_cast<double>(f.qp)});
    }
    sim_.tracer().instant("pkt.tx", "fabric",
                          {"qp", static_cast<double>(f.qp)},
                          {"bytes", static_cast<double>(pkt.bytes)});
    sim_.tracer().counter(name_.c_str(), "backlog",
                          static_cast<double>(backlog_packets()));
  }
  const bool deliver = fate != PacketFate::kDrop;
  // Both events of a traversal must stay within the kernel's inline
  // callback buffer: they are the bulk of all events.
  auto serialized = [this, deliver, pkt = std::move(pkt)]() mutable {
    busy_ = false;
    if (deliver) {
      auto delivered = [this, pkt = std::move(pkt)]() mutable {
        sink_(std::move(pkt));
      };
      static_assert(sim::Callback::fits_inline<decltype(delivered)>);
      sim_.schedule_in(config_.propagation_delay, std::move(delivered));
    }
    try_start();
  };
  static_assert(sim::Callback::fits_inline<decltype(serialized)>);
  sim_.schedule_in(tx, std::move(serialized));
}

void Channel::try_start() {
  if (busy_) return;
  // Pass 1 — lane eligibility: a lane competes when it is not paused and
  // some flow on it holds a head packet with the tokens to send it. A pause
  // frame against one lane leaves every other lane in the mask (the
  // per-priority escape from PFC's head-of-line blocking); with one lane a
  // pause holds the whole port. The token check does not store the refill:
  // a bucket is refilled only when pass 3 probes its flow, or when every
  // lane is rate-blocked, never merely because the port arbitrated.
  // The scan stops once every lane is eligible (with one lane: at the first
  // sendable flow); rate_blocked only matters when no lane is.
  const auto all_lanes = static_cast<std::uint8_t>((1u << num_lanes_) - 1u);
  std::uint8_t eligible = 0;
  bool rate_blocked = false;
  for (const auto& f : flows_) {
    if (f.packets.empty() || lanes_[f.vl].pause_refs > 0) continue;
    if (f.rate_bytes_per_sec > 0.0 &&
        refilled_tokens(f) < static_cast<double>(f.packets.front().bytes)) {
      rate_blocked = true;
      continue;
    }
    eligible |= static_cast<std::uint8_t>(1u << f.vl);
    if (eligible == all_lanes) break;
  }
  // Pass 2 — two-table arbitration picks the lane...
  const std::uint8_t vl = arbiter_.pick(eligible);
  if (vl >= qos::kMaxVls) {
    if (!rate_blocked) return;
    // Everything sendable is rate-limited below its bucket: settle the
    // buckets and wake up when the earliest one has refilled.
    for (auto& f : flows_) {
      if (!f.packets.empty() && lanes_[f.vl].pause_refs == 0) {
        may_send(f, f.packets.front().bytes);
      }
    }
    arm_rate_timer();
    return;
  }
  // ...pass 3 — weighted round-robin with per-flow token buckets within the
  // winning lane, from that lane's own cursor so heavy lanes never skew
  // fairness inside quiet ones. A flow keeps the grant for up to `weight`
  // consecutive packets — the priority control of newer IB HCAs; the token
  // bucket is their bandwidth-limit control.
  const std::size_t n = flows_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t pos = (lanes_[vl].cursor + probe) % n;
    Flow& f = flows_[pos];
    if (f.vl != vl || f.packets.empty()) continue;
    if (!may_send(f, f.packets.front().bytes)) continue;
    launch(f, pos);
    return;
  }
}

}  // namespace resex::fabric
