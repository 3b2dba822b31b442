// A full-duplex point-to-point link between two fabric endpoints, modeled on
// the shared EventLoop: per-direction serialization at the configured rate
// (FIFO behind the previous frame), propagation latency, a seeded stochastic
// drop process, and the mutable fault surface (down / gray loss / extra
// latency) the FaultInjector drives.
//
// Determinism: each direction owns a seeded Rng consumed once per transmit,
// so the delivery sequence is a pure function of (traffic, seed, faults).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_loop.hpp"
#include "sim/packet.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace mantis::net {

using NodeId = int;

struct LinkModel {
  double gbps = 25.0;          ///< serialization rate
  Duration propagation = 200;  ///< ns of flight time
  double loss = 0.0;           ///< ambient stochastic loss probability
  std::uint64_t seed = 1;      ///< drop-process seed (direction B gets seed^flip)
};

class Link {
 public:
  /// One attachment point: which fabric node, and which of its ports.
  struct End {
    NodeId node = -1;
    int port = -1;
  };

  /// Called at arrival time with the packet and the *receiving* end.
  using Deliver = std::function<void(sim::Packet, NodeId node, int port)>;

  Link(sim::EventLoop& loop, std::string name, End a, End b, LinkModel model,
       Deliver deliver);

  const std::string& name() const { return name_; }
  const End& end_a() const { return a_; }
  const End& end_b() const { return b_; }
  const LinkModel& model() const { return model_; }
  bool attaches(NodeId node, int port) const {
    return (a_.node == node && a_.port == port) ||
           (b_.node == node && b_.port == port);
  }
  /// 0 = a->b, 1 = b->a; throws if `from` is not an endpoint.
  int direction_from(NodeId from) const;
  const End& receiver(int dir) const { return dir == 0 ? b_ : a_; }
  /// `node`'s end (its port on this link); throws if not an endpoint.
  const End& end_of(NodeId node) const {
    return direction_from(node) == 0 ? a_ : b_;
  }

  /// Entry point: `from`'s side puts the packet on the wire. Serialization
  /// occupies the direction FIFO; delivery (or loss) happens after
  /// serialization + propagation + any fault-injected extra latency.
  void transmit(NodeId from, sim::Packet pkt);

  /// Tags each end with the shard that owns it (the fabric assigns one
  /// shard per switch; hosts map to their uplink switch's shard). Delivery
  /// events are then scheduled *for the receiver's shard*, which is what
  /// lets the parallel engine run receivers concurrently — and what makes
  /// min(propagation) the safe lookahead. Direction state (busy_until, Rng,
  /// tx stats) is owned by the sender's shard; only delivered_pkts is
  /// written on the receiver's, a disjoint field.
  void set_shards(int shard_a, int shard_b) {
    dirs_[0].rx_shard = shard_b;  // a->b delivers at b
    dirs_[1].rx_shard = shard_a;
  }

  // ---- fault surface (dir: 0 = a->b, 1 = b->a, -1 = both) ----
  void set_down(bool down, int dir = -1);
  void set_loss(double p, int dir = -1);
  void set_extra_latency(Duration d, int dir = -1);
  bool down(int dir) const { return dirs_[check_dir(dir)].down; }
  double loss(int dir) const { return dirs_[check_dir(dir)].loss; }

  struct DirStats {
    std::uint64_t tx_pkts = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t delivered_pkts = 0;
    std::uint64_t dropped_pkts = 0;  ///< stochastic loss + down-interface drops
    /// Cumulative serialization occupancy (ns); the fabric's utilization
    /// gauges are windowed deltas of this.
    std::uint64_t busy_ns = 0;
    /// In-band telemetry accounting: packets carrying an INT stack and the
    /// stack bytes they added to this direction's wire occupancy.
    std::uint64_t int_pkts = 0;
    std::uint64_t int_bytes = 0;
  };
  const DirStats& dir_stats(int dir) const { return dirs_[check_dir(dir)].stats; }

  /// Publishes a windowed utilization sample to the direction's gauge
  /// (`net.link.<name>.<ab|ba>.util`). Driven by Fabric::sample_telemetry.
  void set_utilization(int dir, double util) {
    dirs_[check_dir(dir)].util_gauge->set(util);
  }

  Duration serialization_time(std::uint32_t bytes) const;

 private:
  struct Dir {
    DirStats stats;
    bool down = false;
    double loss = 0.0;
    Duration extra_latency = 0;
    Time busy_until = 0;
    int rx_shard = sim::EventLoop::kControlShard;  ///< receiver's shard tag
    Rng rng{1};
    telemetry::Counter* tx_ctr = nullptr;
    telemetry::Counter* drop_ctr = nullptr;
    telemetry::Gauge* util_gauge = nullptr;
  };

  static std::size_t check_dir(int dir);

  sim::EventLoop* loop_;
  std::string name_;
  End a_, b_;
  LinkModel model_;
  Deliver deliver_;
  Dir dirs_[2];
  telemetry::prof::Profiler* prof_ = nullptr;  ///< hot-path cost attribution
};

}  // namespace mantis::net
