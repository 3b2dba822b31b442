#include "sim/switch.hpp"

#include <sstream>

#include "telemetry/provenance.hpp"

namespace mantis::sim {

Switch::Switch(EventLoop& loop, const p4::Program& prog, SwitchConfig cfg)
    : Switch(loop, std::make_shared<const SwitchImage>(prog), cfg) {}

Switch::Switch(EventLoop& loop, std::shared_ptr<const SwitchImage> image,
               SwitchConfig cfg)
    : loop_(&loop),
      image_(std::move(image)),
      cfg_(cfg),
      prov_(&loop.telemetry().provenance()),
      factory_(image_->program()),
      regs_(image_->program()),
      ingress_(*image_, p4::Gress::kIngress, tables_, regs_, prov_),
      egress_(*image_, p4::Gress::kEgress, tables_, regs_, prov_),
      port_stats_(static_cast<std::size_t>(cfg.num_ports)),
      rx_up_(static_cast<std::size_t>(cfg.num_ports), true) {
  prof_ = &loop.telemetry().prof();
  const p4::Program& prog = image_->program();
  tables_.reserve(prog.tables.size());
  for (const auto& tbl : prog.tables) {
    tables_.emplace_back(prog, tbl);
    tables_.back().set_provenance(prov_);
  }
  tm_ = std::make_unique<TrafficManager>(
      loop, cfg.num_ports, cfg.port_gbps, cfg.queue_capacity_bytes,
      [this](Packet pkt, int port) { on_dequeue(std::move(pkt), port); });

  auto& tel = loop.telemetry();
  rx_ctr_ = &tel.metrics().counter("sim.switch.rx_pkts");
  tx_ctr_ = &tel.metrics().counter("sim.switch.tx_pkts");
  rx_drop_ctr_ = &tel.metrics().counter("sim.switch.rx_drops");
  recirc_ctr_ = &tel.metrics().counter("sim.switch.recirculations");
  telemetry::HistogramOptions stage;
  stage.first_bucket = 64;  // ns
  ingress_stage_hist_ =
      &tel.metrics().histogram("sim.pipeline.ingress_stage_ns", stage);
  tm_stage_hist_ = &tel.metrics().histogram("sim.pipeline.tm_stage_ns", stage);
  egress_stage_hist_ =
      &tel.metrics().histogram("sim.pipeline.egress_stage_ns", stage);
  transit_hist_ = &tel.metrics().histogram("sim.switch.transit_ns", stage);

  f_ingress_port_ = prog.fields.require(p4::intrinsics::kIngressPort);
  f_egress_spec_ = prog.fields.require(p4::intrinsics::kEgressSpec);
  f_egress_port_ = prog.fields.require(p4::intrinsics::kEgressPort);
  f_packet_length_ = prog.fields.require(p4::intrinsics::kPacketLength);
  f_enq_qdepth_ = prog.fields.require(p4::intrinsics::kEnqQdepth);
  f_deq_qdepth_ = prog.fields.require(p4::intrinsics::kDeqQdepth);
  f_ing_ts_ = prog.fields.require(p4::intrinsics::kIngressTimestamp);
  f_egr_ts_ = prog.fields.require(p4::intrinsics::kEgressTimestamp);

  // Register live state with the flight recorder; the ordinal keeps multi-
  // switch (fabric) snapshot labels distinct and deterministic.
  auto& instances = tel.metrics().counter("sim.switch.instances");
  const std::string label = "switch" + std::to_string(instances.value());
  instances.add();
  snapshot_provider_ = tel.recorder().add_snapshot_provider(
      label, [this](std::string& out) { write_snapshot(out); });
}

Switch::~Switch() {
  // The loop (and its recorder) outlives stack-local switches in tests and
  // the check harness; dropping the provider prevents a dangling callback.
  loop_->telemetry().recorder().remove_snapshot_provider(snapshot_provider_);
}

const Switch::PortStats& Switch::port_stats(int port) const {
  expects(port >= 0 && port < cfg_.num_ports, "Switch::port_stats: bad port");
  return port_stats_[static_cast<std::size_t>(port)];
}

void Switch::set_port_up(int port, bool up) {
  expects(port >= 0 && port < cfg_.num_ports, "Switch::set_port_up: bad port");
  rx_up_[static_cast<std::size_t>(port)] = up;
  tm_->set_port_up(port, up);
}

bool Switch::port_up(int port) const {
  expects(port >= 0 && port < cfg_.num_ports, "Switch::port_up: bad port");
  return rx_up_[static_cast<std::size_t>(port)];
}

void Switch::inject_internal(Packet pkt, int port, bool recirculated) {
  MANTIS_PROF_SCOPE(prof_, kPipelineExecute, "switch.ingress");
  expects(port >= 0 && port < cfg_.num_ports, "Switch::inject: bad port");
  auto& stats = port_stats_[static_cast<std::size_t>(port)];
  if (recirculated) {
    recirc_ctr_->add();
  } else if (pkt.arrival_time() < 0) {
    pkt.set_arrival_time(loop_->now());
  }
  if (!rx_up_[static_cast<std::size_t>(port)]) {
    ++stats.rx_drops;
    rx_drop_ctr_->add();
    return;
  }
  // Packet-rate admission: each pipeline pass (recirculations included)
  // consumes one slot; a small input buffer tolerates bursts.
  if (cfg_.pipeline_pps > 0) {
    const Duration slot =
        static_cast<Duration>(1'000'000'000ull / cfg_.pipeline_pps);
    const Time now = loop_->now();
    const Duration backlog_limit =
        slot * static_cast<Duration>(cfg_.ingress_buffer_pkts);
    if (!recirculated && pipeline_free_at_ > now + backlog_limit) {
      ++stats.rx_drops;
      rx_drop_ctr_->add();
      return;
    }
    pipeline_free_at_ = std::max(pipeline_free_at_, now) + slot;
  }
  ++stats.rx_pkts;
  stats.rx_bytes += pkt.length_bytes();
  rx_ctr_->add();

  const p4::Width w9 = 9, w19 = 19, w32 = 32, w48 = 48;
  pkt.set(f_ingress_port_, static_cast<std::uint64_t>(port), w9);
  pkt.set(f_packet_length_, pkt.length_bytes(), w32);
  pkt.set(f_ing_ts_, static_cast<std::uint64_t>(loop_->now() / 1000), w48);

  // The ingress pipeline executes atomically at arrival time: control-plane
  // operations are separate events, so a packet never observes a half-applied
  // multi-entry update — matching real RMT per-packet consistency.
#if MANTIS_TELEMETRY_ENABLED
  // The ingress pass occupies [now, now + ingress_latency) in the model (the
  // table walk itself is atomic at arrival; the latency is the schedule_in
  // delay below), so the span covers the modeled window.
  loop_->telemetry().tracer().complete(
      "pkt.ingress_pipeline", "sim", telemetry::Track::kSwitch, loop_->now(),
      loop_->now() + cfg_.ingress_latency, "port", port);
#endif
  ingress_stage_hist_->record(static_cast<std::uint64_t>(cfg_.ingress_latency));
  ingress_.process(pkt);
  if (prov_->consume_flagged_hit()) {
    prov_->on_first_effect(loop_->now(), cfg_.ingress_latency);
  }
  if (pkt.dropped()) {
    ++stats.rx_drops;
    rx_drop_ctr_->add();
    return;
  }

  const int out = static_cast<int>(pkt.get(f_egress_spec_));
  if (out == cfg_.recirc_port) {
    Packet recirc = std::move(pkt);
    recirc.clear_dropped();
    loop_->schedule_in(cfg_.ingress_latency + cfg_.recirc_latency,
                       [this, p = std::move(recirc)]() mutable {
                         inject_internal(std::move(p), 0, true);
                       });
    return;
  }
  if (out < 0 || out >= cfg_.num_ports) {
    ++stats.rx_drops;  // unrouted packet
    return;
  }

  pkt.set(f_enq_qdepth_, tm_->queue_depth_pkts(out), w19);
  loop_->schedule_in(cfg_.ingress_latency,
                     [this, out, p = std::move(pkt)]() mutable {
                       p.set_enqueue_time(loop_->now());
                       tm_->enqueue(std::move(p), out);
                     });
}

void Switch::on_dequeue(Packet pkt, int port) {
  MANTIS_PROF_SCOPE(prof_, kPipelineExecute, "switch.egress");
  const p4::Width w9 = 9, w19 = 19, w48 = 48;
  pkt.set(f_egress_port_, static_cast<std::uint64_t>(port), w9);
  pkt.set(f_deq_qdepth_, tm_->queue_depth_pkts(port), w19);
  pkt.set(f_egr_ts_, static_cast<std::uint64_t>(loop_->now() / 1000), w48);

  if (pkt.enqueue_time() >= 0) {
    tm_stage_hist_->record(
        static_cast<std::uint64_t>(loop_->now() - pkt.enqueue_time()));
  }
  egress_stage_hist_->record(static_cast<std::uint64_t>(cfg_.egress_latency));
#if MANTIS_TELEMETRY_ENABLED
  loop_->telemetry().tracer().complete(
      "pkt.egress_pipeline", "sim", telemetry::Track::kSwitch, loop_->now(),
      loop_->now() + cfg_.egress_latency, "port", port);
#endif

  egress_.process(pkt);
  if (prov_->consume_flagged_hit()) {
    prov_->on_first_effect(loop_->now(), cfg_.egress_latency);
  }
  if (pkt.dropped()) return;
  if (egress_hook_) egress_hook_(pkt, port);

  auto& stats = port_stats_[static_cast<std::size_t>(port)];
  ++stats.tx_pkts;
  stats.tx_bytes += pkt.length_bytes();
  tx_ctr_->add();
  if (pkt.arrival_time() >= 0) {
    transit_hist_->record(static_cast<std::uint64_t>(
        loop_->now() + cfg_.egress_latency - pkt.arrival_time()));
  }
  if (on_transmit_) {
    loop_->schedule_in(cfg_.egress_latency,
                       [this, port, p = std::move(pkt)]() mutable {
                         on_transmit_(std::move(p), port, loop_->now());
                       });
  }
}

void Switch::write_snapshot(std::string& out) const {
  std::ostringstream s;
  constexpr std::uint32_t kMaxCells = 64;
  // Declaration order keeps snapshots byte-stable.
  const p4::Program& prog = image_->program();
  for (const auto& reg : prog.registers) {
    const std::uint32_t n = std::min(reg.instance_count, kMaxCells);
    s << "register " << reg.name << "[" << reg.instance_count << "]";
    if (n > 0) {
      const auto values = regs_.read_range(reg.name, 0, n - 1);
      for (auto v : values) s << " " << v;
    }
    if (n < reg.instance_count) s << " ...";
    s << "\n";
  }
  for (const auto& ctr : prog.counters) {
    const std::uint32_t n = std::min(ctr.instance_count, kMaxCells);
    s << "counter " << ctr.name << "[" << ctr.instance_count << "]";
    for (std::uint32_t i = 0; i < n; ++i) {
      s << " " << regs_.counter_value(ctr.name, i);
    }
    if (n < ctr.instance_count) s << " ...";
    s << "\n";
  }
  out += s.str();
  for (const auto& tbl : prog.tables) table(tbl.name).write_snapshot(out);
  std::ostringstream q;
  std::uint64_t total = 0;
  for (int port = 0; port < cfg_.num_ports; ++port) {
    const auto depth = tm_->queue_depth_pkts(port);
    if (depth == 0) continue;
    total += depth;
    q << "queue port=" << port << " pkts=" << depth
      << " bytes=" << tm_->queue_depth_bytes(port) << "\n";
  }
  q << "queued_total_pkts " << total << "\n";
  out += q.str();
}

}  // namespace mantis::sim
