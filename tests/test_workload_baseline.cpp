// Tests for workload generators and estimation baselines.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "baseline/count_min.hpp"
#include "baseline/dp_hashtable.hpp"
#include "baseline/legacy_controller.hpp"
#include "baseline/sflow.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "p4r/sema.hpp"
#include "sim/switch.hpp"
#include "util/check.hpp"
#include "workload/flow_classes.hpp"
#include "workload/fluid_tcp.hpp"
#include "workload/heartbeat.hpp"
#include "workload/trace_gen.hpp"
#include "workload/udp_flood.hpp"

namespace mantis {
namespace {

// ---------------------------------------------------------------------------
// Trace generator
// ---------------------------------------------------------------------------

TEST(TraceGen, MatchesConfiguredShape) {
  workload::TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 20000;
  cfg.duration_s = 0.1;
  const auto trace = workload::generate_trace(cfg);
  EXPECT_EQ(trace.packets.size(), 20000u);
  // Sorted by time, within the configured duration (approximately).
  for (std::size_t i = 1; i < trace.packets.size(); ++i) {
    EXPECT_GE(trace.packets[i].t, trace.packets[i - 1].t);
  }
  EXPECT_LT(trace.packets.back().t, static_cast<Time>(0.2 * 1e9));
  // Ground truth is consistent with the packets.
  std::uint64_t total = 0;
  for (const auto& [src, bytes] : trace.bytes_per_src) total += bytes;
  std::uint64_t sum = 0;
  for (const auto& pkt : trace.packets) sum += pkt.bytes;
  EXPECT_EQ(total, sum);
  // Heavy tail: the top source dominates the median source.
  const auto top = trace.bytes_per_src.at(0x0a000001);
  std::vector<std::uint64_t> sizes;
  for (const auto& [src, bytes] : trace.bytes_per_src) sizes.push_back(bytes);
  std::sort(sizes.begin(), sizes.end());
  EXPECT_GT(top, 20 * sizes[sizes.size() / 2]);
}

TEST(TraceGen, DeterministicPerSeed) {
  workload::TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1000;
  const auto a = workload::generate_trace(cfg);
  const auto b = workload::generate_trace(cfg);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  EXPECT_EQ(a.packets[500].src_ip, b.packets[500].src_ip);
  EXPECT_EQ(a.packets[500].t, b.packets[500].t);
  cfg.seed = 2;
  const auto c = workload::generate_trace(cfg);
  EXPECT_NE(a.packets[500].t, c.packets[500].t);
}

// ---------------------------------------------------------------------------
// Estimation baselines
// ---------------------------------------------------------------------------

TEST(Sflow, UnbiasedForLargeFlows) {
  baseline::SflowEstimator est(100, /*seed=*/5);
  const std::uint64_t truth = 1000000;
  for (std::uint64_t i = 0; i < truth / 100; ++i) est.observe(1, 100);
  const double rel_err =
      std::abs(static_cast<double>(est.estimate(1)) - truth) / truth;
  EXPECT_LT(rel_err, 0.35);
  EXPECT_GT(est.samples_taken(), 0u);
}

TEST(Sflow, SmallFlowsUsuallyMissed) {
  baseline::SflowEstimator est(30000, 5);
  for (int f = 0; f < 100; ++f) {
    for (int i = 0; i < 10; ++i) est.observe(static_cast<std::uint32_t>(f), 100);
  }
  int missed = 0;
  for (int f = 0; f < 100; ++f) {
    if (est.estimate(static_cast<std::uint32_t>(f)) == 0) ++missed;
  }
  EXPECT_GT(missed, 90);  // 1000 bytes at 1:30000 is almost never sampled
}

TEST(CountMin, NeverUnderestimates) {
  baseline::CountMinSketch cms(2, 64);
  Rng rng(3);
  std::map<std::uint32_t, std::uint64_t> truth;
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform(300));
    const auto amount = rng.uniform_range(1, 1000);
    cms.add(key, amount);
    truth[key] += amount;
  }
  for (const auto& [key, value] : truth) {
    EXPECT_GE(cms.estimate(key), value);
  }
}

TEST(CountMin, CollisionsInflateSmallKeys) {
  // Small table, one elephant: victims of collisions overestimate hugely.
  baseline::CountMinSketch cms(2, 16);
  cms.add(42, 1'000'000);
  for (std::uint32_t k = 0; k < 200; ++k) cms.add(k, 10);
  std::uint64_t worst = 0;
  for (std::uint32_t k = 0; k < 200; ++k) {
    if (k != 42) worst = std::max(worst, cms.estimate(k));
  }
  EXPECT_GT(worst, 100'000u);
}

TEST(DpHashTable, ExactWithoutCollisions) {
  baseline::DpHashTable ht(1u << 16);
  ht.add(1, 100);
  ht.add(1, 50);
  ht.add(2, 70);
  EXPECT_EQ(ht.estimate(1), 150u);
  EXPECT_EQ(ht.estimate(2), 70u);
  EXPECT_EQ(ht.estimate(3), 0u);
}

TEST(DpHashTable, CollisionsMisattribute) {
  baseline::DpHashTable ht(4);  // tiny: collisions guaranteed
  for (std::uint32_t k = 0; k < 64; ++k) ht.add(k, 100);
  EXPECT_GT(ht.collisions(), 0u);
  // Some owner absorbed colliders' bytes; victims read zero.
  std::uint64_t max_est = 0;
  int zeros = 0;
  for (std::uint32_t k = 0; k < 64; ++k) {
    max_est = std::max(max_est, ht.estimate(k));
    if (ht.estimate(k) == 0) ++zeros;
  }
  EXPECT_GT(max_est, 100u);
  EXPECT_GT(zeros, 0);
}

// ---------------------------------------------------------------------------
// Sources driving the simulated switch
// ---------------------------------------------------------------------------

const char* kEchoSrc = R"P4R(
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; protocol : 8; ecn : 1; } }
header ipv4_t ipv4;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
table out { actions { fwd; } default_action : fwd(1); size : 1; }
control ingress { apply(out); }
control egress { }
)P4R";

TEST(Heartbeat, EmitsAtConfiguredPeriodWithLoss) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::Switch sw(loop, prog);
  workload::HeartbeatConfig cfg;
  cfg.port = 3;
  cfg.period = 1 * kMicrosecond;
  workload::HeartbeatSource hb(sw, cfg);
  hb.start(1 * kMillisecond);
  loop.run();
  EXPECT_NEAR(static_cast<double>(hb.emitted()), 1000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(sw.port_stats(3).rx_pkts), 1000.0, 2.0);

  workload::HeartbeatConfig lossy = cfg;
  lossy.loss_prob = 0.5;
  workload::HeartbeatSource hb2(sw, lossy);
  hb2.start(loop.now() + 1 * kMillisecond);
  loop.run();
  EXPECT_NEAR(static_cast<double>(hb2.emitted()), 500.0, 80.0);
}

TEST(FluidTcp, RampsUpWhenUncongested) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::Switch sw(loop, prog);
  workload::FluidTcpConfig cfg;
  cfg.src_ip = 0x0a000001;
  cfg.dst_ip = 1;
  cfg.init_rate_gbps = 0.05;
  cfg.additive_gbps = 0.05;
  cfg.rtt = 20 * kMicrosecond;
  workload::FluidTcpFlow flow(sw, cfg);
  sw.set_on_transmit(
      [&](const sim::Packet& pkt, int, Time) { flow.on_transmit(pkt); });
  flow.start(2 * kMillisecond);
  loop.run_until(2 * kMillisecond);
  EXPECT_GT(flow.rate_gbps(), 1.0);
  EXPECT_GT(flow.delivered_bytes(), 0u);
}

TEST(FluidTcp, BacksOffUnderLoss) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::SwitchConfig scfg;
  scfg.port_gbps = 1.0;  // 1G bottleneck
  scfg.queue_capacity_bytes = 15000;
  sim::Switch sw(loop, prog, scfg);
  workload::FluidTcpConfig cfg;
  cfg.src_ip = 0x0a000001;
  cfg.dst_ip = 1;
  cfg.init_rate_gbps = 5.0;  // way above the bottleneck
  cfg.rtt = 20 * kMicrosecond;
  workload::FluidTcpFlow flow(sw, cfg);
  sw.set_on_transmit(
      [&](const sim::Packet& pkt, int, Time) { flow.on_transmit(pkt); });
  flow.start(3 * kMillisecond);
  loop.run_until(3 * kMillisecond);
  EXPECT_LT(flow.rate_gbps(), 2.5);
}

// ---------------------------------------------------------------------------
// Aggregated Zipf flow classes
// ---------------------------------------------------------------------------

constexpr const char* kRouteOnlySrc = R"P4R(
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; }
}
header ipv4_t ipv4;
action set_egress(port) { modify_field(standard_metadata.egress_spec, port); }
table route {
  reads { ipv4.dstAddr : exact; }
  actions { set_egress; _drop; }
  default_action : _drop;
  size : 64;
}
control ingress { apply(route); }
control egress { }
)P4R";

/// 2x2 leaf-spine with shortest-path routes installed on every switch.
struct FlowClassFabric {
  sim::EventLoop loop;
  p4::Program prog;
  std::unique_ptr<net::Fabric> fabric;

  FlowClassFabric() {
    prog = p4r::frontend(kRouteOnlySrc).prog;
    net::FabricConfig fc;
    fc.base_seed = 11;
    fabric = std::make_unique<net::Fabric>(
        loop, prog, net::Topology::leaf_spine(2, 2, 1), fc);
    for (net::NodeId n = 0; n < fabric->num_switches(); ++n) {
      for (const auto& [addr, port] :
           fabric->topo().compute_routes_from(n, {})) {
        p4::EntrySpec spec;
        spec.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
        spec.action = "set_egress";
        spec.action_args = {static_cast<std::uint64_t>(port)};
        fabric->switch_at(n).table("route").add_entry(spec);
      }
    }
  }
};

TEST(FlowClasses, ZipfPartitionIsExactAndHeavyTailed) {
  const auto parts = workload::FlowClasses::zipf_partition(1'000'000, 64, 1.1);
  ASSERT_EQ(parts.size(), 64u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    sum += parts[i];
    if (i > 0) {
      EXPECT_LE(parts[i], parts[i - 1]) << "class " << i;
    }
  }
  EXPECT_EQ(sum, 1'000'000u);                  // exact partition
  EXPECT_GT(parts[0], 10 * parts[63]);         // heavy tail
  EXPECT_GT(parts[63], 0u);                    // no starved class
  // Deterministic (the bench and tests rely on replayability).
  EXPECT_EQ(parts, workload::FlowClasses::zipf_partition(1'000'000, 64, 1.1));
  // Remainder handling: totals that don't divide cleanly still sum exactly.
  const auto odd = workload::FlowClasses::zipf_partition(17, 5, 1.0);
  std::uint64_t odd_sum = 0;
  for (const auto v : odd) odd_sum += v;
  EXPECT_EQ(odd_sum, 17u);
}

TEST(FlowClasses, EmitsCappedSamplesAndDeliversAll) {
  FlowClassFabric f;
  workload::FlowClassesConfig cfg;
  cfg.total_flows = 100'000;  // huge aggregate rate: every epoch hits the cap
  cfg.epoch = 10 * kMicrosecond;
  cfg.max_samples_per_epoch = 4;
  std::vector<workload::FlowClasses::Endpoint> eps = {
      {0x0a000000u, 0x0a000100u},  // leaf0 host -> leaf1 host
      {0x0a000100u, 0x0a000000u},
  };
  workload::FlowClasses flows(*f.fabric, cfg, eps);
  EXPECT_EQ(flows.num_classes(), 2u);
  EXPECT_EQ(flows.flows_in(0) + flows.flows_in(1), 100'000u);

  const Time until = 100 * kMicrosecond;  // 10 epochs
  flows.start(until);
  // Drain past the horizon so in-flight samples land.
  f.loop.run_until(until + 50 * kMicrosecond);

  // The cap binds every epoch at this rate: 2 classes x 10 epochs x 4.
  EXPECT_EQ(flows.samples_sent(), 80u);
  // Lossless fabric: every sample delivered and attributed to its class.
  EXPECT_EQ(flows.samples_delivered(), flows.samples_sent());
  // AIMD kept rates inside the configured band, deterministically.
  for (std::size_t c = 0; c < flows.num_classes(); ++c) {
    EXPECT_GE(flows.rate_pps(c), cfg.min_rate_pps);
    EXPECT_LE(flows.rate_pps(c), cfg.max_rate_pps);
  }
  EXPECT_GT(flows.aggregate_rate_pps(), 0.0);
}

TEST(FlowClasses, RunsAreReplayable) {
  auto run = [] {
    FlowClassFabric f;
    workload::FlowClassesConfig cfg;
    cfg.total_flows = 5'000;
    cfg.epoch = 10 * kMicrosecond;
    std::vector<workload::FlowClasses::Endpoint> eps = {
        {0x0a000000u, 0x0a000100u},
        {0x0a000100u, 0x0a000000u},
    };
    workload::FlowClasses flows(*f.fabric, cfg, eps);
    flows.start(80 * kMicrosecond);
    f.loop.run_until(120 * kMicrosecond);
    return std::tuple(flows.samples_sent(), flows.samples_delivered(),
                      flows.rate_pps(0), flows.rate_pps(1));
  };
  EXPECT_EQ(run(), run());
}

TEST(FlowClasses, RejectsEpochsBelowTheLookaheadContract) {
  FlowClassFabric f;
  workload::FlowClassesConfig cfg;
  cfg.epoch = 1 * kMicrosecond;
  std::vector<workload::FlowClasses::Endpoint> eps = {
      {0x0a000000u, 0x0a000100u}};
  workload::FlowClasses flows(*f.fabric, cfg, eps);
  // The delivery-cell ring is only deterministic with epoch >= 2x the
  // engine lookahead; a too-coarse lookahead must be rejected loudly.
  EXPECT_THROW(flows.start(10 * kMicrosecond, /*engine_lookahead=*/600),
               PreconditionError);
}

TEST(UdpFlood, SendsAtConfiguredRate) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::Switch sw(loop, prog);
  workload::UdpFloodConfig cfg;
  cfg.rate_gbps = 10.0;
  cfg.pkt_bytes = 1250;
  cfg.start_at = 100 * kMicrosecond;
  workload::UdpFloodSource flood(sw, cfg);
  flood.start(1100 * kMicrosecond);
  loop.run_until(1100 * kMicrosecond);
  // 10 Gbps for 1ms = 1.25MB = 1000 packets of 1250B.
  EXPECT_NEAR(static_cast<double>(flood.sent()), 1000.0, 10.0);
  EXPECT_EQ(flood.first_packet_at(), 100 * kMicrosecond);
}

TEST(LegacyUpdater, RecordsLatencies) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::Switch sw(loop, prog);
  driver::Driver drv(sw);
  const auto h = drv.add_entry("out", [] {
    p4::EntrySpec s;
    s.action = "fwd";
    s.action_args = {2};
    return s;
  }());
  baseline::LegacyUpdaterConfig cfg;
  cfg.table = "out";
  cfg.handle = h;
  cfg.action = "fwd";
  cfg.args = {3};
  baseline::LegacyUpdater updater(drv, cfg);
  updater.start(2 * kMillisecond);
  loop.run();
  EXPECT_GT(updater.latencies().count(), 50u);
  // Uncontended: every op completes in exactly the model cost.
  EXPECT_DOUBLE_EQ(updater.latencies().max(),
                   static_cast<double>(drv.costs().table_mod(true)));
}

TEST(SlowPoller, PollsAtCadence) {
  sim::EventLoop loop;
  auto prog = p4r::frontend(kEchoSrc).prog;
  sim::Switch sw(loop, prog);
  driver::Driver drv(sw);
  // Reuse an intrinsic-free register by augmenting the program is overkill;
  // poll a register added via a fresh program instead.
  auto prog2 = p4r::frontend(R"P4R(
register r { width : 32; instance_count : 8; }
control ingress { }
control egress { }
)P4R").prog;
  sim::Switch sw2(loop, prog2);
  driver::Driver drv2(sw2);
  baseline::SlowPollerConfig cfg;
  cfg.reg = "r";
  cfg.lo = 0;
  cfg.hi = 7;
  cfg.period = 10 * kMillisecond;
  int callbacks = 0;
  baseline::SlowPoller poller(drv2, cfg, [&](Time, const std::vector<std::uint64_t>& v) {
    ++callbacks;
    EXPECT_EQ(v.size(), 8u);
  });
  poller.start(95 * kMillisecond);
  loop.run();
  EXPECT_EQ(callbacks, 10);
}

}  // namespace
}  // namespace mantis
