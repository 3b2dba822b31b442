#include "workload/flow_classes.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.hpp"

namespace mantis::workload {

std::vector<std::uint64_t> FlowClasses::zipf_partition(std::uint64_t total,
                                                       std::size_t classes,
                                                       double s) {
  expects(classes >= 1, "zipf_partition: need >= 1 class");
  std::vector<double> w(classes);
  double sum = 0;
  for (std::size_t i = 0; i < classes; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    sum += w[i];
  }
  std::vector<std::uint64_t> out(classes);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < classes; ++i) {
    out[i] = static_cast<std::uint64_t>(static_cast<double>(total) * w[i] / sum);
    assigned += out[i];
  }
  // Floors under-assign by < classes; hand the remainder out in class order
  // (heaviest first) so the partition is exact and deterministic.
  for (std::size_t i = 0; assigned < total; i = (i + 1) % classes) {
    ++out[i];
    ++assigned;
  }
  return out;
}

FlowClasses::FlowClasses(net::Fabric& fabric, FlowClassesConfig cfg,
                         std::vector<Endpoint> endpoints)
    : fabric_(&fabric), cfg_(cfg) {
  expects(!endpoints.empty(), "FlowClasses: need >= 1 endpoint pair");
  expects(cfg_.epoch > 0, "FlowClasses: epoch must be positive");
  const auto& prog = fabric.factory().program();
  f_src_ = prog.fields.require("ipv4.srcAddr");
  f_dst_ = prog.fields.require("ipv4.dstAddr");

  const auto flows =
      zipf_partition(cfg_.total_flows, endpoints.size(), cfg_.zipf_s);
  classes_.resize(endpoints.size());
  std::set<std::uint32_t> dst_addrs;
  for (std::size_t c = 0; c < endpoints.size(); ++c) {
    auto& cs = classes_[c];
    cs.ep = endpoints[c];
    cs.src = &fabric.host_for(cs.ep.src_addr);
    cs.flows = flows[c];
    cs.rate_pps = cfg_.init_rate_pps;
    dst_addrs.insert(cs.ep.dst_addr);
  }
  // One hook per distinct receiving host; the hook dispatches on the class
  // id the sample carries. A bench may already use these hosts for other
  // traffic — non-sample packets (srcAddr outside the class range) are
  // ignored.
  for (const std::uint32_t addr : dst_addrs) {
    fabric.host_for(addr).set_on_receive(
        [this](const sim::Packet& pkt, Time now) {
          on_host_receive(pkt, now);
        });
  }
}

double FlowClasses::aggregate_rate_pps() const {
  double sum = 0;
  for (const auto& cs : classes_) {
    sum += cs.rate_pps * static_cast<double>(cs.flows);
  }
  return sum;
}

std::uint64_t FlowClasses::samples_sent() const {
  std::uint64_t sum = 0;
  for (const auto& cs : classes_) {
    sum += cs.sent_total;
  }
  return sum;
}

std::uint64_t FlowClasses::samples_delivered() const {
  std::uint64_t sum = 0;
  for (const auto& cs : classes_) {
    sum += cs.delivered_total.load(std::memory_order_relaxed);
  }
  return sum;
}

void FlowClasses::start(Time until, Duration engine_lookahead) {
  expects(engine_lookahead <= 0 || cfg_.epoch >= 2 * engine_lookahead,
          "FlowClasses: epoch must be >= 2x the engine lookahead (the "
          "delivery-cell ring is only deterministic with that margin)");
  start_time_ = fabric_->loop().now();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    emit_epoch(c, 0, until);
  }
}

void FlowClasses::emit_epoch(std::size_t c, std::uint64_t e, Time until) {
  auto& cs = classes_[c];
  const Time epoch_start = start_time_ + static_cast<Time>(e) * cfg_.epoch;
  if (epoch_start >= until) return;

  // Aggregate fluid rate -> ideal packets this epoch -> bounded samples.
  const double aggregate_pps = cs.rate_pps * static_cast<double>(cs.flows);
  const double ideal_pkts = aggregate_pps * static_cast<double>(cfg_.epoch) / 1e9;
  const std::uint32_t samples = static_cast<std::uint32_t>(std::min<double>(
      cfg_.max_samples_per_epoch, std::max(1.0, std::floor(ideal_pkts))));
  cs.sent[e & 3] = samples;

  // Evenly spaced inside the epoch, all on the source host's shard so the
  // canonical keys are identical under any engine.
  const Duration gap = cfg_.epoch / static_cast<Duration>(samples);
  for (std::uint32_t j = 0; j < samples; ++j) {
    fabric_->schedule_for_node(cs.src->node(), epoch_start + j * gap,
                               [this, c] { send_sample(c); });
  }
  // AIMD tick for this epoch: half an epoch after the arrival window
  // closes, so every delivery cell write is barrier-ordered before it.
  fabric_->schedule_for_node(
      cs.src->node(), epoch_start + cfg_.epoch + cfg_.epoch / 2,
      [this, c, e] { adjust(c, e); });
  fabric_->schedule_for_node(cs.src->node(), epoch_start + cfg_.epoch,
                             [this, c, e, until] {
                               emit_epoch(c, e + 1, until);
                             });
}

void FlowClasses::send_sample(std::size_t c) {
  auto& cs = classes_[c];
  auto pkt = fabric_->factory().make(cfg_.pkt_bytes);
  pkt.set(f_src_, kClassAddrBase + static_cast<std::uint32_t>(c), 32);
  pkt.set(f_dst_, cs.ep.dst_addr, 32);
  cs.src->send(std::move(pkt));
  ++cs.sent_total;
}

void FlowClasses::on_host_receive(const sim::Packet& pkt, Time now) {
  const std::uint64_t src = pkt.get(f_src_);
  if (src < kClassAddrBase ||
      src >= kClassAddrBase + classes_.size()) {
    return;  // not a sample (e.g. other bench traffic sharing the host)
  }
  const std::uint64_t e = static_cast<std::uint64_t>(now - start_time_) /
                          static_cast<std::uint64_t>(cfg_.epoch);
  auto& cs = classes_[src - kClassAddrBase];
  cs.delivered[e & 3].fetch_add(1, std::memory_order_relaxed);
  cs.delivered_total.fetch_add(1, std::memory_order_relaxed);
}

void FlowClasses::adjust(std::size_t c, std::uint64_t e) {
  auto& cs = classes_[c];
  const std::uint64_t delivered =
      cs.delivered[e & 3].load(std::memory_order_relaxed);
  const std::uint32_t sent = cs.sent[e & 3];
  // Recycle the cell two epochs ahead: its next writer runs a half-epoch
  // after this tick, on the far side of at least one round barrier.
  cs.delivered[(e + 2) & 3].store(0, std::memory_order_relaxed);
  if (sent == 0) return;
  if (delivered >= sent) {
    cs.rate_pps = std::min(cfg_.max_rate_pps, cs.rate_pps + cfg_.additive_pps);
  } else {
    // Multiplicative decrease proportional to the sampled loss, floored at
    // a halving (classic AIMD worst case).
    const double frac = static_cast<double>(delivered) / sent;
    cs.rate_pps = std::max(cfg_.min_rate_pps,
                           cs.rate_pps * std::max(0.5, frac));
  }
}

}  // namespace mantis::workload
