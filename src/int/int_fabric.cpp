#include "int/int_fabric.hpp"

#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace mantis::int_tel {

IntFabric::IntFabric(net::Fabric& fabric, IntFabricConfig cfg)
    : fabric_(&fabric), cfg_(cfg) {
  const auto& topo = fabric.topo();
  for (net::NodeId n = 0; n < topo.num_switches; ++n) {
    std::vector<bool> host_ports(
        static_cast<std::size_t>(fabric.config().switch_cfg.num_ports), false);
    bool has_host = false;
    for (const auto& l : topo.links) {
      if (l.a == n && !topo.is_switch(l.b)) {
        host_ports[static_cast<std::size_t>(l.port_a)] = true;
        has_host = true;
      } else if (l.b == n && !topo.is_switch(l.a)) {
        host_ports[static_cast<std::size_t>(l.port_b)] = true;
        has_host = true;
      }
    }
    IntProcessorConfig pc;
    pc.switch_id = static_cast<std::uint32_t>(n);
    pc.max_hops = cfg_.max_hops;
    pc.sample_every = cfg_.sample_every;
    pc.record_every = cfg_.record_every;
    pc.source_enabled = has_host;
    pc.sink_enabled = has_host;
    processors_.push_back(std::make_unique<IntProcessor>(
        fabric.switch_at(n), pc, std::move(host_ports), &collector_));
  }
}

IntProcessor& IntFabric::processor_at(net::NodeId n) {
  expects(n >= 0 && static_cast<std::size_t>(n) < processors_.size(),
          "IntFabric::processor_at: bad node");
  return *processors_[static_cast<std::size_t>(n)];
}

std::size_t IntFabric::start_probes(Duration period, Time until) {
  expects(paths_.empty(), "IntFabric::start_probes: already started");
  const auto& topo = fabric_->topo();

  // Host-bearing switches, and one representative host address per switch
  // (dst_node is addr-sorted, so the first hit is the lowest address).
  std::map<net::NodeId, std::uint32_t> rep_addr;
  for (const auto& [addr, host] : topo.dst_node) {
    rep_addr.emplace(fabric_->shard_of(host), addr);  // its uplink switch
  }

  // Every two-hop path a -> via -> b between host-bearing switches, in
  // (a, via, b) order — deterministic enumeration.
  for (const auto& [a, a_addr] : rep_addr) {
    for (const auto& [b, b_addr] : rep_addr) {
      if (a == b) continue;
      for (net::NodeId via = 0; via < topo.num_switches; ++via) {
        if (via == a || via == b) continue;
        if (topo.link_between(a, via) < 0 || topo.link_between(via, b) < 0) {
          continue;
        }
        paths_.push_back(ProbePath{a, via, b});
      }
    }
  }

  const auto& fields = fabric_->factory().program().fields;
  const p4::FieldId f_src = fields.find("ipv4.srcAddr");
  const p4::FieldId f_dst = fields.find("ipv4.dstAddr");
  const p4::FieldId f_proto = fields.find("ipv4.protocol");

  for (const auto& path : paths_) {
    probe_seq_[path] = 0;  // pre-populated: shard ticks hit disjoint entries
  }
  for (const auto& path : paths_) {
    const std::uint32_t src_addr = rep_addr.at(path.src);
    const std::uint32_t dst_addr = rep_addr.at(path.dst);
    const int out_port =
        fabric_->link_between(path.src, path.via).end_of(path.src).port;
    auto make = [this, path, src_addr, dst_addr, out_port, f_src, f_dst,
                 f_proto]() {
      auto pkt = fabric_->factory().make(cfg_.probe_bytes);
      if (f_src != p4::kInvalidField) pkt.set(f_src, src_addr, 32);
      if (f_dst != p4::kInvalidField) pkt.set(f_dst, dst_addr, 32);
      if (f_proto != p4::kInvalidField) pkt.set(f_proto, 254, 8);
      push_int(pkt, probe_seq_.at(path)++, cfg_.max_hops);
      // Synthetic source hop: the injection bypasses the source switch's
      // pipeline, so stamp its identity here (latency/queue are not real).
      IntHop hop;
      hop.switch_id = static_cast<std::uint32_t>(path.src);
      hop.egress_port = static_cast<std::uint16_t>(out_port);
      hop.ingress_port = kSyntheticIngress;
      stamp_hop(pkt, hop);
      probes_sent_.fetch_add(1, std::memory_order_relaxed);
      return pkt;
    };
    fabric_->start_periodic(path.src, path.via, period, until, std::move(make));
  }
  return paths_.size();
}

std::uint64_t IntFabric::stack_wire_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fabric_->num_links(); ++i) {
    auto& l = const_cast<net::Fabric*>(fabric_)->link(i);
    total += l.dir_stats(0).int_bytes + l.dir_stats(1).int_bytes;
  }
  return total;
}

std::uint64_t IntFabric::stack_wire_pkts() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fabric_->num_links(); ++i) {
    auto& l = const_cast<net::Fabric*>(fabric_)->link(i);
    total += l.dir_stats(0).int_pkts + l.dir_stats(1).int_pkts;
  }
  return total;
}

std::string IntFabric::summary() const {
  std::ostringstream out;
  out << collector_.summary();
  out << "  probe paths " << paths_.size() << ", probes sent "
      << probes_sent_.load(std::memory_order_relaxed) << "\n";
  out << "  stack wire bytes " << stack_wire_bytes() << " across "
      << stack_wire_pkts() << " pkt-hops\n";
  return out.str();
}

}  // namespace mantis::int_tel
