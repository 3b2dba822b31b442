// Stress: a 64-switch leaf-spine fabric, every switch running the
// gray-failure program under its own agent, with an injected gray loss on
// the sender's uplink. Asserts the fabric completes (no deadlock between
// the parallel engine's rounds and the control plane), keeps telemetry
// rings bounded, and recovers within the PR-2 SLO.
//
// SLO accounting at this scale: the harness serializes dialogue-iteration
// bodies on the shared virtual clock (see src/net/harness.hpp), so with 64
// busy-looping agents each switch's effective poll window T_d stretches to
// ~num_agents x iteration latency (~1.3 ms here) — detection latency is a
// property of that documented contention model, not of the recovery path.
// The PR-2 SLO (restored within 250 us, tests/test_net.cpp) therefore
// applies to the detection->restoration leg, and detection itself is pinned
// against the contention window so a scheduling regression still fails.
//
// Registered under the `stress` ctest label so sanitizer / quick runs can
// exclude it (`ctest -LE stress`).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/gray_failure.hpp"
#include "compile/compiler.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "net/scenarios.hpp"
#include "net/topology.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/flow_classes.hpp"

namespace mantis {
namespace {

TEST(StressFabric, SixtyFourSwitchGrayFailure) {
  net::GrayScenarioConfig cfg;
  cfg.leaves = 8;
  cfg.spines = 56;
  cfg.switch_cfg.num_ports = 58;  // leaves carry 56 uplinks + a host port
  cfg.seed = 1;
  cfg.threads = 8;
  // 64 agent prologues serialize on the virtual clock (each installs a full
  // route table + per-port heartbeat tallies over PCIe), so the fault must
  // land well after they finish; 5 us heartbeats keep the per-round event
  // volume tractable at 448 switch-switch links while the adaptive
  // delta_threshold (floor(eta*T_d/T_s), T_s = hb_period) still detects
  // within ~2 poll windows.
  cfg.hb_period = 5 * kMicrosecond;
  cfg.fault_at = 6000 * kMicrosecond;
  cfg.run_until = cfg.fault_at + 3000 * kMicrosecond;

  net::GrayFabricScenario scenario(cfg);
  auto res = scenario.run();

  // No deadlock / livelock: we got here, pre-fault delivery happened, the
  // fault fired, and every stage of the reaction pipeline ran.
  EXPECT_GT(res.delivered_before_fault, 0u);
  ASSERT_TRUE(res.restored()) << "delivery never restored; events:\n"
                              << [&] {
                                   std::string s;
                                   for (const auto& e : res.events)
                                     s += e + "\n";
                                   return s;
                                 }();
  ASSERT_GE(res.detected_at, res.fault_at);

  // PR-2 SLO on the recovery leg: detection -> reroute -> observed
  // end-to-end delivery within 250 us.
  EXPECT_LE(res.restored_at - res.detected_at, 250 * kMicrosecond)
      << "recovery_us=" << (res.restored_at - res.detected_at) / kMicrosecond;

  // Detection tracks the contention model: ~2 effective poll windows of
  // num_agents x iteration latency, with slack for the fault landing
  // mid-window. A harness scheduling regression blows through this.
  const auto& lat =
      scenario.harness().agent_at(0).iteration_latencies().values();
  ASSERT_FALSE(lat.empty());
  double mean_iter = 0;
  for (const double v : lat) mean_iter += v;
  mean_iter /= static_cast<double>(lat.size());
  const double window_ns =
      static_cast<double>(scenario.harness().num_agents()) * mean_iter;
  EXPECT_LE(static_cast<double>(res.detection_latency()), 3.0 * window_ns)
      << "detect_us=" << res.detection_latency() / kMicrosecond
      << " window_us=" << window_ns / 1000.0;

  // Bounded memory: the flight recorder is a fixed-capacity ring no matter
  // the fabric size or run length, and the scenario's event log stays
  // small (transitions + detections, not per-packet).
  auto& tel = scenario.loop().telemetry();
  EXPECT_LE(tel.recorder().size(), tel.recorder().capacity());
  EXPECT_LT(res.events.size(), 4096u);
}

// ---------------------------------------------------------------------------
// Datacenter-scale smoke: the bench's 1024-switch 3-tier Clos, shortened.
// Parallel execution with multi-switch shard groups must deliver the exact
// packet set the sequential loop does and record byte-identical metrics.
// At 8 threads the engine runs 16 shard groups, so every data-plane metric
// sink records into 16 group parts that the snapshot merges
// (tests/test_parallel_fabric.cpp holds the rest of the determinism
// contract, on a small Clos where it is cheap).
// ---------------------------------------------------------------------------

struct ClosRun {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t host_rx = 0;
  std::string metrics;  ///< metrics().snapshot_json(), over 1 MB here
};

ClosRun run_big_clos(int threads) {
  const net::ClosSpec spec{16, 32, 16, 256, 1};  // 1024 switches, 512 hosts
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());

  net::FabricConfig fc;
  fc.default_link.propagation = 2000;
  fc.switch_cfg.num_ports = 48;  // agg radix L + C/A
  net::Fabric fabric(loop, artifacts.prog, net::Topology::clos(spec), fc);

  // A 32-destination slice of the bench's endpoint plan keeps the smoke
  // inside CI time while still crossing pods, aggs and the core tier.
  std::vector<std::uint32_t> dst_addrs;
  for (int k = 0; k < 32; ++k) {
    dst_addrs.push_back(spec.host_addr((k * 8 + 3) % spec.num_leaves(), 0));
  }
  for (int sw = 0; sw < spec.num_switches(); ++sw) {
    auto& route = fabric.switch_at(sw).table("route");
    for (const std::uint32_t addr : dst_addrs) {
      const int port = spec.next_hop_port(sw, addr);
      if (port < 0) continue;
      p4::EntrySpec es;
      es.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
      es.key.push_back(p4::MatchValue{0, ~std::uint64_t{0}});  // vv column
      es.action = "set_egress";
      es.action_args = {static_cast<std::uint64_t>(port)};
      route.add_entry(es);
    }
  }

  workload::FlowClassesConfig wc;
  wc.total_flows = 1'048'576;
  wc.epoch = 20 * kMicrosecond;
  wc.max_samples_per_epoch = 8;
  std::vector<workload::FlowClasses::Endpoint> eps;
  for (int c = 0; c < 32; ++c) {
    const std::uint32_t dst = dst_addrs[static_cast<std::size_t>(c)];
    int src_leaf = (c * 37 + 11) % spec.num_leaves();
    if (spec.host_addr(src_leaf, 0) == dst) {
      src_leaf = (src_leaf + 1) % spec.num_leaves();
    }
    eps.push_back({spec.host_addr(src_leaf, 0), dst});
  }
  workload::FlowClasses flows(fabric, wc, std::move(eps));

  const Time horizon = 60 * kMicrosecond;  // 3 epochs
  if (threads > 1) {
    net::ParallelFabricEngine engine(fabric, threads);
    flows.start(horizon, engine.lookahead());
    engine.run_until(horizon + 30 * kMicrosecond);  // drain in-flight
  } else {
    flows.start(horizon);
    loop.run_until(horizon + 30 * kMicrosecond);
  }

  ClosRun r;
  r.sent = flows.samples_sent();
  r.delivered = flows.samples_delivered();
  r.host_rx = fabric.stats().host_rx_pkts.load();
  r.metrics = loop.telemetry().metrics().snapshot_json();
  return r;
}

TEST(StressFabric, ThousandSwitchClosDeliveryInvariance) {
  const ClosRun seq = run_big_clos(1);
  EXPECT_GT(seq.sent, 0u);
  // Lossless links and fully drained queues: the structural routes carry
  // every sample across the fabric.
  EXPECT_EQ(seq.delivered, seq.sent);

  const ClosRun par = run_big_clos(8);
  EXPECT_EQ(par.sent, seq.sent);
  EXPECT_EQ(par.delivered, seq.delivered);
  EXPECT_EQ(par.host_rx, seq.host_rx);
  // Compared whole, not with EXPECT_EQ: a mismatch would print both.
  EXPECT_GT(seq.metrics.size(), 1'000'000u);
  EXPECT_TRUE(par.metrics == seq.metrics)
      << "metrics snapshots differ (" << seq.metrics.size() << " vs "
      << par.metrics.size() << " bytes)";
}

}  // namespace
}  // namespace mantis
