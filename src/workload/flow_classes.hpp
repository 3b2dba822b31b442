// Aggregated Zipf flow classes: millions of concurrent fluid-TCP flows as
// O(classes) simulation state.
//
// The datacenter-scale bench (bench/bench_fabric_scale.cpp) needs "1M+
// concurrent flows" worth of offered load on a 1024-switch Clos without 1M+
// flow objects or 1M+ packet events per RTT. The standard trick (and what
// fluid models are for): group flows into CLASSES of identical (src host,
// dst host, AIMD state) flows, give class i a Zipf(s)-distributed share of
// the flow population, and simulate each class as one fluid aggregate —
// rate = per-flow AIMD rate x flow count, with a bounded number of SAMPLE
// packets per control epoch actually emitted onto the fabric. Sampled
// packets carry the class id in ipv4.srcAddr; delivery of the samples
// drives the class's AIMD loop exactly like per-flow fluid TCP
// (workload/fluid_tcp.hpp), so congestion still closes the loop — only the
// per-flow bookkeeping is aggregated away.
//
// Parallel-engine determinism: sample deliveries land on the destination
// host's shard while the AIMD tick runs on the source's, so delivery counts
// cross shards. Each class counts deliveries into a ring of 4 relaxed
// atomic cells indexed by ARRIVAL epoch (arrival_time / epoch). All writers
// of epoch e run strictly before (e+1)*epoch; the reader tick runs at
// (e+1)*epoch + epoch/2. With epoch >= 2x the engine's lookahead, the
// barrier between those rounds orders every write before the read — the
// relaxed sum is complete and identical for any thread count. The same
// tick resets cell (e+2)&3, a half-epoch before its first writer can run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/fabric.hpp"

namespace mantis::workload {

struct FlowClassesConfig {
  /// Aggregate flow population, Zipf-partitioned over the classes.
  std::uint64_t total_flows = 1'000'000;
  /// Zipf exponent: class i carries weight 1/(i+1)^s.
  double zipf_s = 1.1;
  /// AIMD control epoch E. MUST be >= 2x the parallel engine's lookahead
  /// (checked at start()) for the delivery-cell determinism argument.
  Duration epoch = 20 * kMicrosecond;
  /// Per-flow AIMD state, in packets/sec.
  double init_rate_pps = 1e4;
  double min_rate_pps = 1e3;
  double max_rate_pps = 1e6;
  double additive_pps = 2e3;  ///< per-epoch additive increase (per flow)
  std::uint32_t pkt_bytes = 256;
  /// Emission sampling cap: at most this many sample packets per class per
  /// epoch, regardless of aggregate rate (each sample then represents
  /// aggregate_rate * epoch / samples flows' worth of traffic).
  std::uint32_t max_samples_per_epoch = 32;
};

/// Sample packets stamp ipv4.srcAddr = kClassAddrBase + class index, so
/// receive hooks can attribute a delivery without per-packet state. The
/// base is outside the host address plan (0x0a....).
inline constexpr std::uint32_t kClassAddrBase = 0x0b000000u;

class FlowClasses {
 public:
  struct Endpoint {
    std::uint32_t src_addr = 0;  ///< sending host (owns the AIMD ticks)
    std::uint32_t dst_addr = 0;  ///< receiving host (counts deliveries)
  };

  /// One class per endpoint pair. Flow counts are assigned by the Zipf pmf
  /// in class order (class 0 heaviest), exactly partitioning
  /// cfg.total_flows. Installs a receive hook on every distinct dst host.
  FlowClasses(net::Fabric& fabric, FlowClassesConfig cfg,
              std::vector<Endpoint> endpoints);

  /// Zipf partition of `total` over `classes` (pmf 1/(i+1)^s, floors, then
  /// +1 to the lowest-index classes until the sum is exact). Exposed for
  /// the bench's reporting and the unit tests.
  static std::vector<std::uint64_t> zipf_partition(std::uint64_t total,
                                                   std::size_t classes,
                                                   double s);

  /// Schedules epoch 0 at the loop's current time; classes emit and adjust
  /// until `until`. `engine_lookahead` is the parallel engine's lookahead
  /// (pass 0 for sequential runs) — start() rejects epochs < 2x it.
  void start(Time until, Duration engine_lookahead = 0);

  std::size_t num_classes() const { return classes_.size(); }
  std::uint64_t total_flows() const { return cfg_.total_flows; }
  std::uint64_t flows_in(std::size_t c) const { return classes_[c].flows; }
  double rate_pps(std::size_t c) const { return classes_[c].rate_pps; }
  /// Modeled aggregate offered rate over all classes, packets/sec.
  double aggregate_rate_pps() const;
  std::uint64_t samples_sent() const;
  /// Cumulative sample deliveries over the whole run (the AIMD ring cells
  /// reset as epochs retire; this counter never does).
  std::uint64_t samples_delivered() const;

 private:
  struct ClassState {
    Endpoint ep;
    net::Host* src = nullptr;  ///< the host owning ep.src_addr
    std::uint64_t flows = 0;
    double rate_pps = 0;  ///< per-flow; aggregate = rate_pps * flows
    /// Samples emitted, per epoch ring slot (src-shard-only, plain).
    std::array<std::uint32_t, 4> sent{};
    /// Cumulative samples emitted (src-shard-only like sent[], so plain;
    /// samples_sent() sums across classes after the run quiesces).
    std::uint64_t sent_total = 0;
    /// Sample deliveries by arrival epoch (cross-shard, see file comment).
    std::array<std::atomic<std::uint64_t>, 4> delivered{};
    /// Cumulative deliveries (never reset; order-independent, so the sum
    /// is identical for any thread count).
    std::atomic<std::uint64_t> delivered_total{};
  };

  void emit_epoch(std::size_t c, std::uint64_t e, Time until);
  void adjust(std::size_t c, std::uint64_t e);
  void send_sample(std::size_t c);
  void on_host_receive(const sim::Packet& pkt, Time now);

  net::Fabric* fabric_;
  FlowClassesConfig cfg_;
  /// deque, not vector: ClassState holds atomics (immovable) and a
  /// deque constructs elements in place without ever relocating them.
  std::deque<ClassState> classes_;
  Time start_time_ = 0;
  p4::FieldId f_src_ = p4::kInvalidField;
  p4::FieldId f_dst_ = p4::kInvalidField;
};

}  // namespace mantis::workload
