// Traffic manager: per-egress-port FIFO queues serviced at line rate, with
// tail drop and queue-depth gauges. Sits between the ingress and egress
// pipelines, like the TM of an RMT ASIC. Queue depth is where the DoS and RL
// use cases read congestion from.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/packet.hpp"

namespace mantis::sim {

class TrafficManager {
 public:
  /// `deliver` is invoked at dequeue time (start of egress processing).
  using Deliver = std::function<void(Packet, int port)>;

  TrafficManager(EventLoop& loop, int num_ports, double port_gbps,
                 std::uint64_t queue_capacity_bytes, Deliver deliver);

  /// Enqueues for transmission on `port`; tail-drops when the queue is full
  /// or the port is administratively down.
  void enqueue(Packet pkt, int port);

  std::uint32_t queue_depth_pkts(int port) const;
  std::uint64_t queue_depth_bytes(int port) const;

  void set_port_up(int port, bool up);
  bool port_up(int port) const;

  struct PortStats {
    std::uint64_t enq_pkts = 0;
    std::uint64_t deq_pkts = 0;
    std::uint64_t deq_bytes = 0;
    std::uint64_t tail_drops = 0;
  };
  const PortStats& stats(int port) const;

  int num_ports() const { return static_cast<int>(queues_.size()); }

  /// Serialization delay for `bytes` at the configured port rate.
  Duration transmission_time(std::uint32_t bytes) const;

 private:
  struct PortQueue {
    /// Allocated by the first enqueue: most ports of a large fabric never
    /// queue a packet, and an empty std::deque already holds ~600 bytes.
    std::unique_ptr<std::deque<Packet>> packets;
    std::uint64_t bytes = 0;
    bool busy = false;
    bool up = true;
    PortStats stats;
    /// Lazily bound per-port depth gauge (created on first enqueue so idle
    /// ports do not clutter the registry).
    telemetry::Gauge* depth_gauge = nullptr;
  };

  EventLoop* loop_;
  double bytes_per_ns_;
  std::uint64_t capacity_bytes_;
  Deliver deliver_;
  std::vector<PortQueue> queues_;

  // Cached telemetry sinks.
  telemetry::Histogram* depth_hist_;
  telemetry::Counter* enq_ctr_;
  telemetry::Counter* deq_ctr_;
  telemetry::Counter* drop_ctr_;
  telemetry::prof::Profiler* prof_;  ///< hot-path cost attribution

  static std::size_t depth(const PortQueue& q) {
    return q.packets ? q.packets->size() : 0;
  }
  telemetry::Gauge& port_depth_gauge(int port, PortQueue& q);
  void record_depth(int port, PortQueue& q);
  void start_service(int port);
  PortQueue& queue(int port);
  const PortQueue& queue(int port) const;
};

}  // namespace mantis::sim
