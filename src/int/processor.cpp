#include "int/processor.hpp"

#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace mantis::int_tel {

IntProcessor::IntProcessor(sim::Switch& sw, IntProcessorConfig cfg,
                           std::vector<bool> host_ports,
                           IntCollector* collector)
    : sw_(&sw),
      cfg_(cfg),
      host_ports_(std::move(host_ports)),
      collector_(collector) {
  expects(cfg_.sample_every >= 1, "IntProcessor: sample_every must be >= 1");
  expects(cfg_.max_hops >= 1, "IntProcessor: max_hops must be >= 1");

  const auto& fields = sw.program().fields;
  f_ingress_port_ = fields.find(p4::intrinsics::kIngressPort);
  f_src_ = fields.find("ipv4.srcAddr");
  f_dst_ = fields.find("ipv4.dstAddr");
  f_proto_ = fields.find("ipv4.protocol");

  auto& metrics = sw.loop().telemetry().metrics();
  prof_ = &sw.loop().telemetry().prof();
  source_ctr_ = &metrics.counter("net.int.source_pkts");
  transit_ctr_ = &metrics.counter("net.int.transit_stamps");
  sink_ctr_ = &metrics.counter("net.int.sink_reports");
  truncated_ctr_ = &metrics.counter("net.int.truncated");
  telemetry::HistogramOptions lat;
  lat.first_bucket = 256;  // ns; a hop is pipeline latency + queueing
  hop_latency_hist_ = &metrics.histogram("net.int.hop_latency_ns", lat);
  report_hops_hist_ = &metrics.histogram("net.int.report_hops");

  sw.set_egress_hook(
      [this](sim::Packet& pkt, int port) { on_egress(pkt, port); });
}

bool IntProcessor::sampled(std::uint64_t src, std::uint64_t dst,
                           std::uint64_t proto) const {
  if (cfg_.sample_every == 1) return true;
  // Deterministic flow hash (splitmix-style finalizer): the same flow is
  // always sampled or never, which is what the sink's per-flow seq gap
  // detection relies on.
  std::uint64_t h = src * 0x9e3779b97f4a7c15ULL;
  h ^= dst + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= proto + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h % cfg_.sample_every == 0;
}

IntHop IntProcessor::make_hop(const sim::Packet& pkt, int port) const {
  IntHop hop;
  hop.switch_id = cfg_.switch_id;
  const Time arrived = pkt.arrival_time();
  const Time leaves = sw_->loop().now() + sw_->config().egress_latency;
  hop.hop_latency_ns = arrived < 0 ? 0
                                   : static_cast<std::uint32_t>(leaves - arrived);
  hop.queue_bytes = static_cast<std::uint32_t>(sw_->queue_depth_bytes(port));
  hop.egress_port = static_cast<std::uint16_t>(port);
  hop.ingress_port =
      f_ingress_port_ == p4::kInvalidField
          ? kSyntheticIngress
          : static_cast<std::uint16_t>(pkt.get(f_ingress_port_));
  return hop;
}

void IntProcessor::on_egress(sim::Packet& pkt, int port) {
  MANTIS_PROF_SCOPE(prof_, kInt, "int.on_egress");
  const bool to_host = host_facing(port);

  if (!has_int(pkt)) {
    // Source role: host-originated packet crossing into the fabric.
    if (!cfg_.source_enabled || to_host || pkt.has_header_stack()) return;
    if (f_ingress_port_ == p4::kInvalidField) return;
    const auto in_port = static_cast<int>(pkt.get(f_ingress_port_));
    if (!host_facing(in_port)) return;
    const std::uint64_t src = f_src_ == p4::kInvalidField ? 0 : pkt.get(f_src_);
    const std::uint64_t dst = f_dst_ == p4::kInvalidField ? 0 : pkt.get(f_dst_);
    const std::uint64_t proto =
        f_proto_ == p4::kInvalidField ? 0 : pkt.get(f_proto_);
    if (!sampled(src, dst, proto)) return;
    push_int(pkt, next_seq_++, cfg_.max_hops);
    stamp_hop(pkt, make_hop(pkt, port));
    ++source_pkts_;
    source_ctr_->add();
    return;
  }

  // Transit role (and the sink's own hop): stamp before strip so the report
  // covers the full path including this switch.
  const IntHop hop = make_hop(pkt, port);
  if (stamp_hop(pkt, hop)) {
    ++transit_stamps_;
    transit_ctr_->add();
    hop_latency_hist_->record(static_cast<std::uint64_t>(hop.hop_latency_ns));
  } else {
    truncated_ctr_->add();
  }
  if (!to_host || !cfg_.sink_enabled) return;

  // Sink role: strip at the fabric->host boundary and export.
  const auto bytes = pkt.strip_header_stack();
  const auto header = decode(bytes);
  if (!header.has_value()) return;  // foreign stack; already stripped
  ++sink_reports_;
  sink_ctr_->add();
  report_hops_hist_->record(static_cast<std::uint64_t>(header->hops.size()));
  if (collector_ == nullptr) return;

  IntReport rep;
  rep.rx_time = sw_->loop().now();
  rep.sink = cfg_.switch_id;
  rep.seq = header->seq;
  rep.truncated = header->truncated;
  rep.flow_src = f_src_ == p4::kInvalidField
                     ? 0
                     : static_cast<std::uint32_t>(pkt.get(f_src_));
  rep.flow_dst = f_dst_ == p4::kInvalidField
                     ? 0
                     : static_cast<std::uint32_t>(pkt.get(f_dst_));
  rep.proto = f_proto_ == p4::kInvalidField
                  ? 0
                  : static_cast<std::uint8_t>(pkt.get(f_proto_));
  rep.hops = header->hops;
  if (cfg_.record_every > 0 && (sink_reports_ - 1) % cfg_.record_every == 0) {
    sw_->loop().telemetry().recorder().record(
        sw_->loop().now(), telemetry::FlightEvent::Kind::kIntReport, 0,
        "int_report", rep.render(), static_cast<std::int64_t>(rep.seq));
  }
  collector_->export_report(std::move(rep));
}

}  // namespace mantis::int_tel
