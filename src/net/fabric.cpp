#include "net/fabric.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace mantis::net {

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

void Host::send(sim::Packet pkt) {
  expects(uplink_ != nullptr, "Host::send: host has no uplink");
  if (pkt.origin_time() < 0) {
    pkt.set_origin_time(fabric_->loop().now());
  }
  ++tx_pkts_;
  fabric_->stats_.host_tx_pkts.fetch_add(1, std::memory_order_relaxed);
  fabric_->host_tx_ctr_->add();
  uplink_->transmit(node_, std::move(pkt));
}

void Host::receive(sim::Packet pkt) {
  const Time now = fabric_->loop().now();
  ++rx_pkts_;
  last_rx_time_ = now;
  fabric_->stats_.host_rx_pkts.fetch_add(1, std::memory_order_relaxed);
  fabric_->host_rx_ctr_->add();
  if (pkt.origin_time() >= 0) {
    fabric_->transit_hist_->record(
        static_cast<std::uint64_t>(now - pkt.origin_time()));
  }
  if (on_receive_) on_receive_(pkt, now);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(sim::EventLoop& loop, const p4::Program& prog, Topology topo,
               FabricConfig cfg)
    : loop_(&loop), topo_(std::move(topo)), cfg_(std::move(cfg)) {
  expects(topo_.num_switches >= 1,
          "Fabric: topology must declare num_switches");
  expects(topo_.num_switches <= topo_.num_nodes, "Fabric: bad num_switches");
  // The wiring tables below are indexed by these fields.
  for (std::size_t i = 0; i < topo_.links.size(); ++i) {
    const auto& spec = topo_.links[i];
    if (spec.a < 0 || spec.a >= topo_.num_nodes || spec.b < 0 ||
        spec.b >= topo_.num_nodes) {
      throw UserError("Fabric: link " + std::to_string(i) + " (n" +
                      std::to_string(spec.a) + "-n" + std::to_string(spec.b) +
                      ") names a node outside [0, " +
                      std::to_string(topo_.num_nodes) + ")");
    }
    if (spec.port_a < 0 || spec.port_b < 0) {
      throw UserError("Fabric: link " + std::to_string(i) +
                      " has a negative port");
    }
  }

  auto& metrics = loop.telemetry().metrics();
  host_tx_ctr_ = &metrics.counter("net.fabric.host_tx_pkts");
  host_rx_ctr_ = &metrics.counter("net.fabric.host_rx_pkts");
  unwired_ctr_ = &metrics.counter("net.fabric.unwired_tx_pkts");
  telemetry::HistogramOptions transit;
  transit.first_bucket = 256;  // ns; multi-hop transits run ~1-100us
  transit_hist_ = &metrics.histogram("net.fabric.transit_ns", transit);

  // Switches first: factory() points at the program of their one shared
  // image, prepared and validated once for the whole fabric. The hook hands
  // each departing packet over, so it moves onto its link uncopied.
  const auto image = std::make_shared<const sim::SwitchImage>(prog);
  for (NodeId n = 0; n < topo_.num_switches; ++n) {
    switches_.push_back(
        std::make_unique<sim::Switch>(loop, image, cfg_.switch_cfg));
    switches_.back()->set_on_transmit(
        [this, n](sim::Packet&& pkt, int port, Time) {
          deliver_from(n, port, std::move(pkt));
        });
  }
  for (NodeId n = topo_.num_switches; n < topo_.num_nodes; ++n) {
    hosts_.push_back(std::unique_ptr<Host>(new Host(*this, n)));
  }
  // A host's address is the lowest one dst_node lists for it (0 if none):
  // walking the address-sorted map backwards writes that one last.
  for (auto it = topo_.dst_node.rbegin(); it != topo_.dst_node.rend(); ++it) {
    if (it->second >= topo_.num_switches && it->second < topo_.num_nodes) {
      hosts_[static_cast<std::size_t>(it->second - topo_.num_switches)]
          ->address_ = it->first;
    }
  }

  // (node, port) -> link table: each node gets slots for ports 0 through its
  // highest wired one; the first declared link on a port wins.
  const auto num_nodes = static_cast<std::size_t>(topo_.num_nodes);
  port_base_.assign(num_nodes + 1, 0);
  for (const auto& spec : topo_.links) {
    for (const auto& [node, port] :
         {std::pair{spec.a, spec.port_a}, std::pair{spec.b, spec.port_b}}) {
      auto& ports = port_base_[static_cast<std::size_t>(node) + 1];
      ports = std::max(ports, static_cast<std::size_t>(port) + 1);
    }
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    port_base_[n + 1] += port_base_[n];
  }
  port_link_.assign(port_base_[num_nodes], -1);
  for (std::size_t i = 0; i < topo_.links.size(); ++i) {
    const auto& spec = topo_.links[i];
    for (const auto& [node, port] :
         {std::pair{spec.a, spec.port_a}, std::pair{spec.b, spec.port_b}}) {
      int& slot = port_link_[port_base_[static_cast<std::size_t>(node)] +
                             static_cast<std::size_t>(port)];
      if (slot < 0) slot = static_cast<int>(i);
    }
  }

  // Links, wired through arrive().
  for (std::size_t i = 0; i < topo_.links.size(); ++i) {
    const auto& spec = topo_.links[i];
    LinkModel model = cfg_.default_link;
    const auto ov = cfg_.link_overrides.find(i);
    if (ov != cfg_.link_overrides.end()) {
      model = ov->second;
    } else {
      model.seed = cfg_.base_seed + 2 * static_cast<std::uint64_t>(i);
    }
    const std::string name =
        "n" + std::to_string(spec.a) + "-n" + std::to_string(spec.b);
    links_.push_back(std::make_unique<Link>(
        loop, name, Link::End{spec.a, spec.port_a}, Link::End{spec.b, spec.port_b},
        model, [this](sim::Packet pkt, NodeId node, int port) {
          arrive(std::move(pkt), node, port);
        }));
  }
  last_busy_ns_.assign(links_.size(), {0, 0});
  for (auto& host : hosts_) {
    const int li = link_at(host->node_, 0);
    if (li >= 0) host->uplink_ = links_[static_cast<std::size_t>(li)].get();
  }

  // Shard tagging: deliveries target the receiver's shard. The same tags
  // are stamped under the sequential engine, so canonical keys — and
  // therefore telemetry — are engine-independent.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const auto& spec = topo_.links[i];
    links_[i]->set_shards(shard_of(spec.a), shard_of(spec.b));
  }
}

int Fabric::shard_of(NodeId node) const {
  expects(node >= 0 && node < topo_.num_nodes, "Fabric::shard_of: bad node");
  if (topo_.is_switch(node)) return node;
  const int li = link_at(node, 0);
  expects(li >= 0, "Fabric::shard_of: host has no uplink");
  const auto& spec = topo_.links[static_cast<std::size_t>(li)];
  const NodeId peer = spec.a == node ? spec.b : spec.a;
  expects(topo_.is_switch(peer), "Fabric::shard_of: host uplink peer not a switch");
  return peer;
}

void Fabric::schedule_for_node(NodeId node, Time t,
                               sim::EventLoop::Callback cb) {
  loop_->schedule_for(shard_of(node), t, std::move(cb));
}

sim::Switch& Fabric::switch_at(NodeId n) {
  expects(n >= 0 && n < topo_.num_switches, "Fabric::switch_at: not a switch");
  return *switches_[static_cast<std::size_t>(n)];
}

Host& Fabric::host_at(NodeId n) {
  if (n < topo_.num_switches || n >= topo_.num_nodes) {
    throw UserError("Fabric::host_at: node " + std::to_string(n) +
                    " is not a host");
  }
  return *hosts_[static_cast<std::size_t>(n - topo_.num_switches)];
}

Host& Fabric::host_for(std::uint32_t addr) {
  const auto it = topo_.dst_node.find(addr);
  if (it == topo_.dst_node.end()) {
    throw UserError("Fabric::host_for: unknown address");
  }
  return host_at(it->second);
}

Link& Fabric::link(std::size_t i) {
  expects(i < links_.size(), "Fabric::link: bad index");
  return *links_[i];
}

Link& Fabric::link_between(NodeId a, NodeId b) {
  const int li = topo_.link_between(a, b);
  if (li < 0) {
    throw UserError("Fabric::link_between: no link n" + std::to_string(a) +
                    "-n" + std::to_string(b));
  }
  return *links_[static_cast<std::size_t>(li)];
}

const sim::PacketFactory& Fabric::factory() const {
  return switches_.front()->factory();
}

void Fabric::send_on_link(NodeId from, NodeId to, sim::Packet pkt) {
  link_between(from, to).transmit(from, std::move(pkt));
}

namespace {

/// Self-rescheduling emitter: each firing schedules a *copy* of itself (no
/// shared_ptr cycle, so ASan's leak check stays clean and the loop drains
/// once `until` passes).
struct PeriodicTick {
  sim::EventLoop* loop;
  Link* link;
  NodeId from;
  Duration period;
  Time until;
  std::shared_ptr<std::function<sim::Packet()>> make;

  void operator()() const {
    if (loop->now() > until) return;
    link->transmit(from, (*make)());
    loop->schedule_in(period, *this);
  }
};

/// Self-rescheduling host sender, the host-side twin of PeriodicTick.
struct HostSendTick {
  sim::EventLoop* loop;
  Host* host;
  Duration period;
  Time until;
  std::shared_ptr<std::function<sim::Packet()>> make;

  void operator()() const {
    if (loop->now() > until) return;
    host->send((*make)());
    loop->schedule_in(period, *this);
  }
};

}  // namespace

void Fabric::start_periodic(NodeId from, NodeId to, Duration period,
                            Time until, std::function<sim::Packet()> make) {
  expects(period > 0, "Fabric::start_periodic: period must be positive");
  PeriodicTick tick{loop_, &link_between(from, to), from, period, until,
                    std::make_shared<std::function<sim::Packet()>>(std::move(make))};
  // Pinned to the sender's shard: the tick mutates the sender direction of
  // the link (busy_until, Rng), which that shard owns. Reschedules inherit
  // the tag via schedule_in.
  schedule_for_node(from, loop_->now() + period, tick);
}

void Fabric::start_host_traffic(NodeId host, Duration period, Time until,
                                std::function<sim::Packet()> make) {
  expects(period > 0, "Fabric::start_host_traffic: period must be positive");
  HostSendTick tick{loop_, &host_at(host), period, until,
                    std::make_shared<std::function<sim::Packet()>>(std::move(make))};
  // Pinned to the host's shard: the tick mutates host tx state and the
  // uplink's sender direction, both owned by the uplink switch's shard.
  // Reschedules inherit the tag via schedule_in.
  schedule_for_node(host, loop_->now() + period, tick);
}

void Fabric::deliver_from(NodeId node, int port, sim::Packet pkt) {
  const int li = link_at(node, port);
  if (li < 0) {
    stats_.unwired_tx_pkts.fetch_add(1, std::memory_order_relaxed);
    unwired_ctr_->add();
    return;
  }
  links_[static_cast<std::size_t>(li)]->transmit(node, std::move(pkt));
}

void Fabric::arrive(sim::Packet pkt, NodeId node, int port) {
  if (topo_.is_switch(node)) {
    // Each switch measures its own transit; only origin_time spans hops.
    pkt.set_arrival_time(-1);
    pkt.set_enqueue_time(-1);
    switch_at(node).inject(std::move(pkt), port);
    return;
  }
  host_at(node).receive(std::move(pkt));
}

void Fabric::sample_telemetry() {
  const Time now = loop_->now();
  const Duration window = now - last_sample_time_;
  if (window <= 0) return;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    for (int d = 0; d < 2; ++d) {
      const auto busy = links_[i]->dir_stats(d).busy_ns;
      const double util =
          static_cast<double>(busy - last_busy_ns_[i][static_cast<std::size_t>(d)]) /
          static_cast<double>(window);
      last_busy_ns_[i][static_cast<std::size_t>(d)] = busy;
      links_[i]->set_utilization(d, util);
    }
  }
  last_sample_time_ = now;
}

}  // namespace mantis::net
