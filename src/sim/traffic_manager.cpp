#include "sim/traffic_manager.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mantis::sim {

TrafficManager::TrafficManager(EventLoop& loop, int num_ports, double port_gbps,
                               std::uint64_t queue_capacity_bytes, Deliver deliver)
    : loop_(&loop),
      bytes_per_ns_(port_gbps / 8.0),
      capacity_bytes_(queue_capacity_bytes),
      deliver_(std::move(deliver)),
      queues_(static_cast<std::size_t>(num_ports)) {
  expects(num_ports > 0, "TrafficManager: need at least one port");
  expects(port_gbps > 0, "TrafficManager: port rate must be positive");
  expects(static_cast<bool>(deliver_), "TrafficManager: deliver callback required");

  auto& tel = loop.telemetry();
  telemetry::HistogramOptions depth;
  depth.first_bucket = 1;  // packets; depths are small integers
  depth_hist_ = &tel.metrics().histogram("sim.tm.queue_depth_pkts", depth);
  enq_ctr_ = &tel.metrics().counter("sim.tm.enq_pkts");
  deq_ctr_ = &tel.metrics().counter("sim.tm.deq_pkts");
  drop_ctr_ = &tel.metrics().counter("sim.tm.tail_drops");
  prof_ = &tel.prof();
}

telemetry::Gauge& TrafficManager::port_depth_gauge(int port, PortQueue& q) {
  if (q.depth_gauge == nullptr) {
    q.depth_gauge = &loop_->telemetry().metrics().gauge(
        "sim.tm.port" + std::to_string(port) + ".queue_depth_pkts");
  }
  return *q.depth_gauge;
}

void TrafficManager::record_depth(int port, PortQueue& q) {
  depth_hist_->record(static_cast<std::uint64_t>(depth(q)));
  port_depth_gauge(port, q).set(static_cast<double>(depth(q)));
}

TrafficManager::PortQueue& TrafficManager::queue(int port) {
  expects(port >= 0 && port < num_ports(), "TrafficManager: bad port");
  return queues_[static_cast<std::size_t>(port)];
}

const TrafficManager::PortQueue& TrafficManager::queue(int port) const {
  expects(port >= 0 && port < num_ports(), "TrafficManager: bad port");
  return queues_[static_cast<std::size_t>(port)];
}

Duration TrafficManager::transmission_time(std::uint32_t bytes) const {
  const double ns = static_cast<double>(bytes) / bytes_per_ns_;
  return static_cast<Duration>(std::llround(std::max(1.0, ns)));
}

void TrafficManager::enqueue(Packet pkt, int port) {
  MANTIS_PROF_SCOPE(prof_, kTmDequeue, "tm.enqueue");
  auto& q = queue(port);
  if (!q.up || q.bytes + pkt.length_bytes() > capacity_bytes_) {
    ++q.stats.tail_drops;
    drop_ctr_->add();
    MANTIS_INSTANT(loop_->telemetry().tracer(), "tm.tail_drop", "sim",
                   telemetry::Track::kTrafficManager, loop_->now(), "port",
                   port);
    return;
  }
  q.bytes += pkt.length_bytes();
  ++q.stats.enq_pkts;
  enq_ctr_->add();
  if (!q.packets) q.packets = std::make_unique<std::deque<Packet>>();
  q.packets->push_back(std::move(pkt));
  record_depth(port, q);
  if (!q.busy) start_service(port);
}

void TrafficManager::start_service(int port) {
  auto& q = queue(port);
  if (q.busy || depth(q) == 0) return;
  q.busy = true;
  const Duration tx = transmission_time(q.packets->front().length_bytes());
  loop_->schedule_in(tx, [this, port] {
    MANTIS_PROF_SCOPE(prof_, kTmDequeue, "tm.dequeue");
    auto& pq = queue(port);
    ensures(depth(pq) > 0, "TrafficManager: service fired on empty queue");
    Packet pkt = std::move(pq.packets->front());
    pq.packets->pop_front();
    pq.bytes -= pkt.length_bytes();
    ++pq.stats.deq_pkts;
    pq.stats.deq_bytes += pkt.length_bytes();
    deq_ctr_->add();
    record_depth(port, pq);
    pq.busy = false;
    const bool was_up = pq.up;
    // Note: `pq` may dangle if deliver_ mutates ports; re-fetch afterwards.
    if (was_up) deliver_(std::move(pkt), port);
    start_service(port);
  });
}

std::uint32_t TrafficManager::queue_depth_pkts(int port) const {
  return static_cast<std::uint32_t>(depth(queue(port)));
}

std::uint64_t TrafficManager::queue_depth_bytes(int port) const {
  return queue(port).bytes;
}

void TrafficManager::set_port_up(int port, bool up) {
  auto& q = queue(port);
  q.up = up;
  if (!up) {
    q.stats.tail_drops += depth(q);
    drop_ctr_->add(depth(q));
    if (q.packets) q.packets->clear();
    q.bytes = 0;
    record_depth(port, q);
  }
}

bool TrafficManager::port_up(int port) const { return queue(port).up; }

const TrafficManager::PortStats& TrafficManager::stats(int port) const {
  return queue(port).stats;
}

}  // namespace mantis::sim
