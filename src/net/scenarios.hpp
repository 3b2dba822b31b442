// Fabric-level Mantis end-to-end scenarios (the multi-switch ports of the
// paper's §8.3.2 / §8.3.3 use cases), built on one skeleton.
//
// FabricScenario: the shared skeleton — a leaf-spine fabric where every
// switch runs one program under its own agent, plus the steps every
// scenario repeats (fault pick and injection, sequenced traffic with the
// K-consecutive delivery tracker, utilization sampling, the engine run and
// the merged event log). A scenario supplies only what differs: its
// program, its per-switch reaction and state, its detection mesh, its
// prologue, its packets and its verdict. int/scenario.hpp builds the INT
// twin of the gray scenario on it.
//
// GrayFabricScenario: a FaultInjector degrades the link the sender's
// traffic actually crosses, detection happens from real missing
// heartbeats, the reroute rewrites a real route table, and restoration is
// *measured from observed end-to-end delivery* — the receiving host seeing
// K consecutive post-fault sequence numbers — not from the reaction's own
// bookkeeping.
//
// EcmpFabricScenario: a 2-leaf/2-spine ECMP fabric carrying NAT'd flows that
// are identical in every hash input except dstPort. Under the initial hash
// configuration (src, dst, srcPort) all flows polarize onto one uplink; the
// hash-polarization reaction detects the imbalance from real per-egress
// counters and shifts the malleable hash inputs, measurably rebalancing the
// *link-level* loads.
//
// All scenarios are deterministic: same config + same seed => identical
// event logs and metric snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/gray_failure.hpp"
#include "apps/hash_polarization.hpp"
#include "compile/compiler.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/harness.hpp"

namespace mantis::int_tel {
class IntFabric;
}

namespace mantis::net {

/// End-to-end delivery tracker shared between the sending and receiving
/// hosts: restoration = the receive instant of the first packet in a run of
/// K consecutive post-fault sequence numbers.
struct DeliveryTracker {
  /// `restore_consecutive` is K; it must be at least 1.
  DeliveryTracker(Time fault_at, int restore_consecutive);

  void on_receive(std::uint64_t seq, Time sent_time, Time rx_time);

  Time fault_at;
  std::size_t k;
  /// seq -> virtual send time. Written only on the *sending* host's shard
  /// (and read back after the run); the receive path classifies packets by
  /// their origin-time stamp instead of indexing here, so the two hosts'
  /// shards never touch the same field concurrently.
  std::vector<Time> sent_at;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_before_fault = 0;
  Time restored_at = -1;
  std::deque<std::pair<std::uint64_t, Time>> recent;  ///< (seq, rx time)
};

class FabricScenario {
 public:
  /// Scheduled callbacks hold `this`, so a scenario never moves.
  FabricScenario(const FabricScenario&) = delete;
  FabricScenario& operator=(const FabricScenario&) = delete;

  sim::EventLoop& loop() { return loop_; }
  Fabric& fabric() { return *fabric_; }
  FabricAgentHarness& harness() { return *harness_; }

 protected:
  /// Leaf 0's first hop toward the destination host.
  struct FaultSite {
    int link = -1;
    int port = -1;
  };

  /// Builds a leaves x spines fabric with `hosts_per_leaf` hosts per leaf
  /// and drop processes seeded from `seed`, every switch running
  /// `program(topology)` under its own agent. A FaultInjector is attached
  /// iff `faults` (it registers net.fault.transitions, so a fault-free
  /// scenario goes without), and an IntFabric sampling 1/n of the flows iff
  /// `int_sample_every` holds n.
  FabricScenario(int leaves, int spines, int hosts_per_leaf,
                 std::string (*program)(const Topology&), std::uint64_t seed,
                 bool faults, std::optional<std::uint32_t> int_sample_every,
                 const agent::AgentOptions& agent = {},
                 const LinkModel& link = {},
                 const sim::SwitchConfig& switch_cfg = {});
  ~FabricScenario();

  /// The gray-failure program, its heartbeat register covering the widest
  /// switch's monitored (switch-facing) port range; small fabrics keep the
  /// classic 8-port reaction window.
  static std::string gray_failure_program(const Topology& topo);

  /// Finds the link the sender's traffic crosses; when `inject`, schedules
  /// a permanent symmetric gray fault of `loss` on it at `at`.
  FaultSite schedule_first_hop_fault(Time at, double loss, bool inject);

  /// Sends one sequenced data packet (seq in ipv4.totalLen) from the source
  /// host every microsecond until `until`; the destination host feeds the
  /// returned tracker and logs restoration. Call after the prologues, which
  /// must have finished before `fault_at`.
  std::shared_ptr<const DeliveryTracker> start_sequenced_traffic(
      Time fault_at, int restore_consecutive, Time until);

  /// Samples link utilization every 50us (so the final sample reflects the
  /// post-reaction steady state), runs agents and events to `until` on
  /// `threads` engine workers, then takes a final sample.
  void run_fabric(Time until, int threads);

  void log_event(Time t, const std::string& what);
  /// Fault transitions and scenario events, merged by timestamp.
  std::vector<std::string> merged_events() const;
  /// Publishes `to - from` in microseconds, or -1 if `to` never happened.
  void set_us_gauge(const std::string& name, Time from, Time to);

  sim::EventLoop loop_;
  compile::Artifacts artifacts_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<FabricAgentHarness> harness_;
  std::unique_ptr<int_tel::IntFabric> int_fabric_;
  NodeId src_host_ = -1;  ///< first host of leaf 0
  NodeId dst_host_ = -1;  ///< first host of leaf 1
  bool ran_ = false;

 private:
  std::vector<std::string> events_;
};

// ---------------------------------------------------------------------------
// Gray failure
// ---------------------------------------------------------------------------

struct GrayScenarioConfig {
  int leaves = 2;
  int spines = 2;
  LinkModel link;              ///< fabric-wide link model (ambient loss etc.)
  /// Per-switch model; wide fabrics need num_ports > the 32-port default.
  sim::SwitchConfig switch_cfg;
  std::uint64_t seed = 1;      ///< fabric base seed (drop processes)

  /// Heartbeat period, which is also the detectors' T_s (gf.ts).
  Duration hb_period = 1 * kMicrosecond;

  /// Injection instant (absolute virtual time; must land after the agent
  /// prologues, which take a few tens of microseconds for 4 switches).
  Time fault_at = 100 * kMicrosecond;
  /// Gray loss rate on the degraded link (1.0 = silent hard failure).
  double fault_loss = 1.0;
  /// False-positive studies: run the full scenario (ambient link loss,
  /// heartbeats, detectors) without injecting any fault.
  bool inject_fault = true;

  Duration pacing = 0;  ///< harness pacing sleep (0 = busy-loop agents)
  /// Per-agent options applied to every switch's agent (async_push etc.);
  /// pacing_sleep inside is overridden by `pacing` above.
  agent::AgentOptions agent;
  /// Worker threads for the fabric engine; 1 = sequential (identical
  /// results by the determinism contract, so this is purely a speed knob).
  int threads = 1;
  Time run_until = 400 * kMicrosecond;

  /// Detector knobs (num_ports and ts are derived from the fabric).
  apps::GrayFailureConfig gf;

  /// Delivery counts as restored after this many consecutive post-fault
  /// sequence numbers arrive (robust to gray-loss survivors).
  int restore_consecutive = 4;

  /// Attach the INT subsystem (src/int): leaf switches push INT onto a
  /// sampled fraction of data flows (~1/int_sample_every) and export sink
  /// reports. Purely observational here — detection stays heartbeat-based.
  bool int_enable = false;
  std::uint32_t int_sample_every = 1;
};

struct GrayScenarioResult {
  Time fault_at = -1;
  std::string fault_link_name;  ///< the link the fault actually hit
  int faulted_port = -1;        ///< sending leaf's port on that link

  Time detected_at = -1;   ///< sending leaf's reaction flags the port
  Time rerouted_at = -1;   ///< sending leaf's new routes installed
  Time restored_at = -1;   ///< first packet of the K-consecutive run

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_before_fault = 0;

  /// Heartbeat frames injected (both directions of every switch link) and
  /// their on-wire bytes — the detection scheme's overhead, for head-to-
  /// head comparison with INT probe + stack bytes.
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_bytes = 0;
  std::uint64_t int_reports = 0;  ///< 0 unless cfg.int_enable

  /// Merged, time-ordered event log ("<t_ns> ..."): fault transitions,
  /// per-switch detections, reroutes, restoration. Byte-identical across
  /// same-seed runs.
  std::vector<std::string> events;

  bool restored() const { return restored_at >= 0; }
  Duration detection_latency() const {
    return detected_at < 0 ? -1 : detected_at - fault_at;
  }
  Duration restoration_latency() const {
    return restored_at < 0 ? -1 : restored_at - fault_at;
  }
};

class GrayFabricScenario : public FabricScenario {
 public:
  explicit GrayFabricScenario(GrayScenarioConfig cfg = {});

  /// Builds traffic + faults and runs to cfg.run_until. Single-shot.
  /// Publishes net.scenario.gray.{detected_us,rerouted_us,restored_us,
  /// delivered_pkts} gauges on the loop's registry.
  GrayScenarioResult run();

  FaultInjector& injector() { return *injector_; }
  /// Non-null iff cfg.int_enable.
  int_tel::IntFabric* int_fabric() { return int_fabric_.get(); }

 private:
  GrayScenarioConfig cfg_;
  std::vector<std::shared_ptr<apps::GrayFailureState>> states_;
  /// Heartbeat frames are minted on their sender's shard; relaxed atomics,
  /// the totals are order-independent sums.
  std::atomic<std::uint64_t> hb_sent_{0};
  std::atomic<std::uint64_t> hb_bytes_{0};
  Time detected_at_ = -1;
  Time rerouted_at_ = -1;
};

// ---------------------------------------------------------------------------
// ECMP hash polarization
// ---------------------------------------------------------------------------

struct EcmpScenarioConfig {
  std::uint64_t seed = 1;
  int flows = 32;  ///< NAT'd flows, distinct only in dstPort
  int threads = 1;  ///< fabric-engine workers (1 = sequential, same results)

  /// Attach the INT subsystem on a sampled fraction of the NAT'd flows.
  bool int_enable = false;
  std::uint32_t int_sample_every = 1;
};

struct EcmpScenarioResult {
  Time first_shift_at = -1;  ///< sending leaf's first hash-input shift
  std::uint64_t shifts = 0;  ///< total shifts across all switches

  /// Max uplink share of the sending leaf (1.0 = total polarization),
  /// measured from real link tx counters: before the first shift and over
  /// the settled window after the last shift.
  double share_before = 0.0;
  double share_after = 0.0;

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t int_reports = 0;  ///< 0 unless cfg.int_enable

  std::vector<std::string> events;

  bool rebalanced(double threshold = 0.8) const {
    return first_shift_at >= 0 && share_after < threshold;
  }
};

class EcmpFabricScenario : public FabricScenario {
 public:
  explicit EcmpFabricScenario(EcmpScenarioConfig cfg = {});

  /// Publishes net.scenario.ecmp.{share_before,share_after,first_shift_us,
  /// shifts} gauges on the loop's registry. Single-shot.
  EcmpScenarioResult run();

  /// Non-null iff cfg.int_enable.
  int_tel::IntFabric* int_fabric() { return int_fabric_.get(); }

 private:
  EcmpScenarioConfig cfg_;
  std::vector<std::shared_ptr<apps::HashPolState>> states_;

  /// Uplink tx counters of the sending leaf (one per spine), snapshotted at
  /// traffic start and at each of its hash shifts.
  std::vector<std::uint64_t> uplink_tx() const;
  struct Snap {
    Time t;
    std::vector<std::uint64_t> tx;
  };
  std::vector<Snap> shift_snaps_;
  std::uint64_t shifts_total_ = 0;
};

}  // namespace mantis::net
