// Multi-switch fabric simulator: instantiates one sim::Switch per switch
// node of a net::Topology plus simple Host endpoints, wires every switch's
// transmit hook and every host's uplink into net::Links on the shared
// EventLoop, and exposes fabric-level telemetry (per-link utilization
// gauges and drop counters, fabric-transit-latency histograms) through the
// stack's MetricsRegistry.
//
// All switches load the same p4::Program (a homogeneous fabric, like the
// paper's testbed) and share one sim::SwitchImage of it; per-switch control
// planes attach via FabricAgentHarness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/switch.hpp"

namespace mantis::net {

class Fabric;

/// A minimal end-host: sends pre-built packets over its uplink and counts /
/// timestamps deliveries. The fabric stamps packets with an origin time at
/// send so end-to-end (host-to-host) transit latency is measured from
/// actual delivery, not inferred.
class Host {
 public:
  using ReceiveHook = std::function<void(const sim::Packet&, Time)>;

  NodeId node() const { return node_; }
  /// This host's address in the topology's dst_node map (0 if unlisted).
  std::uint32_t address() const { return address_; }

  /// Transmits over the uplink (port 0); stamps the packet's origin time.
  /// Throws if the host has no uplink.
  void send(sim::Packet pkt);

  void set_on_receive(ReceiveHook hook) { on_receive_ = std::move(hook); }

  std::uint64_t tx_pkts() const { return tx_pkts_; }
  std::uint64_t rx_pkts() const { return rx_pkts_; }

 private:
  friend class Fabric;
  Host(Fabric& fabric, NodeId node) : fabric_(&fabric), node_(node) {}
  void receive(sim::Packet pkt);

  Fabric* fabric_;
  NodeId node_;
  std::uint32_t address_ = 0;
  Link* uplink_ = nullptr;  ///< the link on port 0; null when unwired
  std::uint64_t tx_pkts_ = 0;
  std::uint64_t rx_pkts_ = 0;
  ReceiveHook on_receive_;
};

struct FabricConfig {
  sim::SwitchConfig switch_cfg;
  LinkModel default_link;
  /// Per-link overrides, keyed by index into Topology::links.
  std::map<std::size_t, LinkModel> link_overrides;
  /// Base drop-process seed; link i uses base_seed + 2*i (so per-link
  /// streams stay independent and the whole fabric replays from one knob).
  std::uint64_t base_seed = 1;
};

class Fabric {
 public:
  /// `topo.num_switches` must be set (>= 1). Copies `topo` and resolves its
  /// wiring once: a link endpoint outside [0, num_nodes) or a negative port
  /// is a UserError.
  Fabric(sim::EventLoop& loop, const p4::Program& prog, Topology topo,
         FabricConfig cfg = {});

  sim::EventLoop& loop() { return *loop_; }
  const Topology& topo() const { return topo_; }
  const FabricConfig& config() const { return cfg_; }
  int num_switches() const { return topo_.num_switches; }

  sim::Switch& switch_at(NodeId n);
  Host& host_at(NodeId n);
  /// Host owning `addr`; throws if no such host.
  Host& host_for(std::uint32_t addr);

  std::size_t num_links() const { return links_.size(); }
  Link& link(std::size_t i);
  /// Topology::link_at in O(1): the link (index into topo().links) attached
  /// to (`node`, `port`), the first declared one if several are, or -1.
  int link_at(NodeId node, int port) const {
    if (node < 0 || node >= topo_.num_nodes || port < 0) return -1;
    const auto n = static_cast<std::size_t>(node);
    const auto slot = port_base_[n] + static_cast<std::size_t>(port);
    return slot < port_base_[n + 1] ? port_link_[slot] : -1;
  }
  /// The link connecting nodes `a` and `b`; throws if absent.
  Link& link_between(NodeId a, NodeId b);

  /// Packet factory for the fabric's shared program.
  const sim::PacketFactory& factory() const;

  /// Puts `pkt` on the wire at `from`'s side of the (from, to) link —
  /// used for link-local traffic such as heartbeats, which originate at a
  /// neighbour switch's MAC rather than at a host.
  void send_on_link(NodeId from, NodeId to, sim::Packet pkt);

  /// Schedules `make()` packets onto the (from, to) link every `period`
  /// until `until` (first emission after one period).
  void start_periodic(NodeId from, NodeId to, Duration period, Time until,
                      std::function<sim::Packet()> make);

  /// Host-side twin of start_periodic: `host` sends `make()` packets every
  /// `period` until `until` (first send after one period).
  void start_host_traffic(NodeId host, Duration period, Time until,
                          std::function<sim::Packet()> make);

  /// Refreshes the windowed telemetry gauges (per-link-direction
  /// utilization = serialization occupancy since the previous sample).
  /// Call at sampling instants; never scheduled internally so `loop.run()`
  /// still drains.
  void sample_telemetry();

  // ---- shard mapping (parallel engine) ----
  /// The shard owning `node`'s state: a switch owns its own shard (tag ==
  /// NodeId), a host belongs to its uplink switch's shard (host events are
  /// rare; co-locating them avoids a near-empty shard per host).
  int shard_of(NodeId node) const;
  /// Number of shards == number of switches.
  int num_shards() const { return topo_.num_switches; }
  /// Schedules `cb` at `t` on the shard owning `node` — for traffic ticks
  /// and other per-node drivers that mutate node state, so they run (and
  /// stamp canonical keys) on the owning shard in both engines.
  void schedule_for_node(NodeId node, Time t, sim::EventLoop::Callback cb);

  /// Counters crossing shard boundaries (tx on sender shards, rx on
  /// receiver shards) — relaxed atomics, order-independent sums.
  struct FabricStats {
    std::atomic<std::uint64_t> host_tx_pkts{0};
    std::atomic<std::uint64_t> host_rx_pkts{0};
    std::atomic<std::uint64_t> unwired_tx_pkts{0};  ///< tx on unwired port
  };
  const FabricStats& stats() const { return stats_; }

 private:
  friend class Host;

  void deliver_from(NodeId node, int port, sim::Packet pkt);
  void arrive(sim::Packet pkt, NodeId node, int port);

  sim::EventLoop* loop_;
  Topology topo_;
  FabricConfig cfg_;
  std::vector<std::unique_ptr<sim::Switch>> switches_;
  /// By node id - num_switches.
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Link>> links_;
  /// (node, port) -> link index, -1 if unwired: node n's ports 0.. its
  /// highest wired port sit at [port_base_[n], port_base_[n + 1]).
  std::vector<std::size_t> port_base_;
  std::vector<int> port_link_;
  FabricStats stats_;

  Time last_sample_time_ = 0;
  std::vector<std::array<std::uint64_t, 2>> last_busy_ns_;

  telemetry::Counter* host_tx_ctr_;
  telemetry::Counter* host_rx_ctr_;
  telemetry::Counter* unwired_ctr_;
  telemetry::Histogram* transit_hist_;
};

}  // namespace mantis::net
