// src/net: link timing, seeded drop determinism, fault replay, topology
// builders, fabric wiring (two-switch ping-pong with exact transit math),
// and the end-to-end fabric scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/gray_failure.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/harness.hpp"
#include "net/link.hpp"
#include "net/scenarios.hpp"
#include "net/topology.hpp"

namespace mantis {
namespace {

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

struct Delivery {
  Time at;
  net::NodeId node;
  int port;
};

TEST(Link, SerializationPlusPropagationTiming) {
  sim::EventLoop loop;
  net::LinkModel model;
  model.gbps = 10.0;       // 1500B -> 1200ns
  model.propagation = 500;
  std::vector<Delivery> rx;
  net::Link link(loop, "t", {0, 0}, {1, 0}, model,
                 [&](sim::Packet, net::NodeId n, int p) {
                   rx.push_back({loop.now(), n, p});
                 });

  EXPECT_EQ(link.serialization_time(1500), 1200);
  link.transmit(0, sim::Packet(0, 1500));
  loop.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].at, 1200 + 500);
  EXPECT_EQ(rx[0].node, 1);  // delivered to the b end
  EXPECT_EQ(link.dir_stats(0).busy_ns, 1200u);
  EXPECT_EQ(link.dir_stats(0).delivered_pkts, 1u);
}

TEST(Link, BackToBackFramesQueueBehindSerialization) {
  sim::EventLoop loop;
  net::LinkModel model;
  model.gbps = 8.0;  // 1000B -> 1000ns
  model.propagation = 100;
  std::vector<Delivery> rx;
  net::Link link(loop, "t", {0, 0}, {1, 0}, model,
                 [&](sim::Packet, net::NodeId n, int p) {
                   rx.push_back({loop.now(), n, p});
                 });
  link.transmit(0, sim::Packet(0, 1000));
  link.transmit(0, sim::Packet(0, 1000));  // same instant: FIFO behind #1
  loop.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].at, 1000 + 100);
  EXPECT_EQ(rx[1].at, 2000 + 100);  // waited out the first serialization

  // The reverse direction is independent (full duplex).
  link.transmit(1, sim::Packet(0, 1000));
  loop.run();
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[2].node, 0);
}

TEST(Link, DownInterfaceDropsWithoutOccupyingWire) {
  sim::EventLoop loop;
  int delivered = 0;
  net::Link link(loop, "t", {0, 0}, {1, 0}, {},
                 [&](sim::Packet, net::NodeId, int) { ++delivered; });
  link.set_down(true, 0);
  link.transmit(0, sim::Packet(0, 64));
  loop.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.dir_stats(0).dropped_pkts, 1u);
  EXPECT_EQ(link.dir_stats(0).busy_ns, 0u);

  link.set_down(false);
  link.transmit(0, sim::Packet(0, 64));
  loop.run();
  EXPECT_EQ(delivered, 1);
}

std::vector<int> loss_pattern(std::uint64_t seed, double loss, int n) {
  sim::EventLoop loop;
  net::LinkModel model;
  model.loss = loss;
  model.seed = seed;
  std::vector<int> delivered;
  net::Link link(loop, "t", {0, 0}, {1, 0}, model,
                 [&](sim::Packet pkt, net::NodeId, int) {
                   delivered.push_back(static_cast<int>(pkt.length_bytes()));
                 });
  for (int i = 0; i < n; ++i) {
    link.transmit(0, sim::Packet(0, static_cast<std::uint32_t>(64 + i)));
    loop.run();
  }
  return delivered;
}

TEST(Link, SeededDropProcessIsDeterministic) {
  const auto a = loss_pattern(42, 0.3, 200);
  const auto b = loss_pattern(42, 0.3, 200);
  EXPECT_EQ(a, b);  // same seed: identical survivor sequence
  EXPECT_GT(a.size(), 100u);
  EXPECT_LT(a.size(), 180u);  // ~140 expected survivors

  const auto c = loss_pattern(43, 0.3, 200);
  EXPECT_NE(a, c);  // different seed: different pattern
}

// ---------------------------------------------------------------------------
// Topology builders
// ---------------------------------------------------------------------------

TEST(Topology, LeafSpineBuilderWiring) {
  const auto topo = net::Topology::leaf_spine(2, 2, 1);
  EXPECT_EQ(topo.num_nodes, 6);
  EXPECT_EQ(topo.num_switches, 4);
  EXPECT_EQ(topo.num_hosts(), 2);
  // 2x2 leaf-spine mesh + one host per leaf.
  EXPECT_EQ(topo.links.size(), 4u + 2u);

  // Leaf l's port s faces spine s; spine s's port l faces leaf l.
  for (int l = 0; l < 2; ++l) {
    for (int s = 0; s < 2; ++s) {
      const int li = topo.link_between(l, 2 + s);
      ASSERT_GE(li, 0);
      EXPECT_EQ(topo.link_at(l, s), li);
      EXPECT_EQ(topo.link_at(2 + s, l), li);
    }
  }
  // Hosts hang off leaf port spines + h; addresses are 10.<leaf>.<h>-style.
  EXPECT_EQ(topo.dst_node.at(0x0a000000u), 4);
  EXPECT_EQ(topo.dst_node.at(0x0a000100u), 5);
  EXPECT_EQ(topo.link_at(0, 2), topo.link_between(0, 4));

  EXPECT_EQ(topo.switch_facing_ports(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.switch_facing_ports(2), (std::vector<int>{0, 1}));

  // Every destination reachable from every switch; leaf 0 reaches the
  // remote host through a spine port and its local host directly.
  const auto routes = topo.compute_routes_from(0, {});
  EXPECT_EQ(routes.at(0x0a000000u), 2);
  EXPECT_TRUE(routes.at(0x0a000100u) == 0 || routes.at(0x0a000100u) == 1);

  // With the primary spine port down, the route shifts to the other spine.
  std::vector<bool> down(3, false);
  down[static_cast<std::size_t>(routes.at(0x0a000100u))] = true;
  const auto rerouted = topo.compute_routes_from(0, down);
  EXPECT_NE(rerouted.at(0x0a000100u), routes.at(0x0a000100u));
  EXPECT_GE(rerouted.at(0x0a000100u), 0);
}

TEST(Topology, RingBuilderWiring) {
  const auto topo = net::Topology::ring(3, 1);
  EXPECT_EQ(topo.num_nodes, 6);
  EXPECT_EQ(topo.num_switches, 3);
  EXPECT_EQ(topo.links.size(), 3u + 3u);
  // Port 0 is the next-hop direction, port 1 the previous.
  EXPECT_EQ(topo.link_at(0, 0), topo.link_between(0, 1));
  EXPECT_EQ(topo.link_at(0, 1), topo.link_between(0, 2));
  const auto routes = topo.compute_routes_from(0, {});
  EXPECT_EQ(routes.size(), topo.dst_node.size());
  for (const auto& [addr, port] : routes) EXPECT_GE(port, 0);
}

TEST(Topology, FatTreeSliceKeepsAppsSemantics) {
  // apps::Topology is now an alias of net::Topology; the original "routes
  // from node 0" surface must behave identically.
  const auto topo = apps::Topology::fat_tree_slice(4, 6);
  const auto base = topo.compute_routes(std::vector<bool>(4, false));
  EXPECT_EQ(base, topo.compute_routes_from(0, std::vector<bool>(4, false)));
  EXPECT_EQ(base.size(), 6u);
  // Dual-homing: killing one uplink keeps every destination reachable.
  std::vector<bool> down(4, false);
  down[0] = true;
  for (const auto& [addr, port] : topo.compute_routes(down)) {
    EXPECT_GE(port, 0);
    EXPECT_NE(port, 0);
  }
}

// ---------------------------------------------------------------------------
// Fault injection replay
// ---------------------------------------------------------------------------

std::vector<std::string> run_fault_schedule(std::uint64_t seed) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::FabricConfig fc;
  fc.base_seed = seed;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::leaf_spine(2, 2, 1),
                     fc);
  net::FaultInjector inj(fabric);

  net::FaultSpec down;
  down.kind = net::FaultSpec::Kind::kDown;
  down.link = 0;
  down.at = 10 * kMicrosecond;
  down.duration = 5 * kMicrosecond;
  inj.schedule(down);

  net::FaultSpec gray;
  gray.kind = net::FaultSpec::Kind::kGrayLoss;
  gray.link = 1;
  gray.at = 12 * kMicrosecond;
  gray.loss = 0.25;
  gray.duration = 6 * kMicrosecond;
  inj.schedule(gray);

  net::FaultSpec lat;
  lat.kind = net::FaultSpec::Kind::kLatency;
  lat.link = 2;
  lat.direction = 1;
  lat.at = 14 * kMicrosecond;
  lat.extra_latency = 3 * kMicrosecond;
  lat.duration = 4 * kMicrosecond;
  inj.schedule(lat);

  net::FaultSpec flap;
  flap.kind = net::FaultSpec::Kind::kFlap;
  flap.link = 3;
  flap.at = 11 * kMicrosecond;
  flap.duration = 9 * kMicrosecond;
  flap.flap_period = 2 * kMicrosecond;
  inj.schedule(flap);

  loop.run();
  return inj.log();
}

TEST(FaultInjector, ScheduleReplaysDeterministically) {
  const auto a = run_fault_schedule(5);
  const auto b = run_fault_schedule(5);
  EXPECT_EQ(a, b);
  // down + up, loss + restore, latency + restore, flap transitions.
  EXPECT_GE(a.size(), 2u + 2u + 2u + 5u);
  EXPECT_EQ(a.front(), "10000 n0-n2 down");
}

TEST(Fabric, SwitchesShareOneImage) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::Fabric fabric(loop, artifacts.prog, net::Topology::leaf_spine(2, 2, 1));
  const auto& first = fabric.switch_at(0);
  for (net::NodeId n = 1; n < fabric.num_switches(); ++n) {
    EXPECT_EQ(fabric.switch_at(n).image(), first.image());
    EXPECT_EQ(&fabric.switch_at(n).program(), &first.program());
  }
  EXPECT_EQ(&fabric.factory().program(), &first.program());
  // A standalone switch builds its own.
  sim::Switch solo(loop, artifacts.prog);
  EXPECT_NE(solo.image(), first.image());
  EXPECT_NE(&solo.program(), &first.program());
  // Tables are per switch: an entry on one switch is not on another.
  p4::EntrySpec spec;
  spec.key = {{7, ~std::uint64_t{0}}, {0, ~std::uint64_t{0}}};
  spec.action = "set_egress";
  spec.action_args = {1};
  fabric.switch_at(0).table("route").add_entry(spec);
  EXPECT_EQ(fabric.switch_at(0).table("route").entry_count(), 1u);
  EXPECT_EQ(fabric.switch_at(1).table("route").entry_count(), 0u);
}

// ---------------------------------------------------------------------------
// Fabric wiring tables
// ---------------------------------------------------------------------------

TEST(FabricWiring, LinkTableMatchesTopologyScan) {
  const auto artifacts =
      compile::compile_source(apps::gray_failure_p4r_source());
  // A leaf-spine with a second link declared on switch 0's port 0 (the
  // first declared one wins, as in Topology::link_at) and three addresses
  // for host 4 (the lowest is its address).
  auto doubled = net::Topology::leaf_spine(2, 2, 1);
  doubled.links.push_back({0, 3, 0, 7, 1.0});
  doubled.dst_node.emplace(0x0a0000ffu, 4);
  doubled.dst_node.emplace(0x09000000u, 4);
  const std::vector<net::Topology> topos = {
      net::Topology::leaf_spine(2, 3, 2), net::Topology::ring(4, 2),
      net::Topology::clos(2, 2, 2, 4, 2), net::Topology::fat_tree(4), doubled};
  for (const auto& topo : topos) {
    sim::EventLoop loop;
    net::Fabric fabric(loop, artifacts.prog, topo);
    for (net::NodeId n = 0; n < topo.num_nodes; ++n) {
      int highest = -1;
      for (const auto& l : topo.links) {
        if (l.a == n) highest = std::max(highest, l.port_a);
        if (l.b == n) highest = std::max(highest, l.port_b);
      }
      for (int p = -1; p <= highest + 1; ++p) {
        EXPECT_EQ(fabric.link_at(n, p), topo.link_at(n, p))
            << "node " << n << " port " << p;
      }
      if (topo.is_switch(n)) {
        EXPECT_EQ(fabric.shard_of(n), n);
        continue;
      }
      // A host runs on its uplink switch's shard.
      const int up = topo.link_at(n, 0);
      ASSERT_GE(up, 0);
      const auto& l = topo.links[static_cast<std::size_t>(up)];
      EXPECT_EQ(fabric.shard_of(n), l.a == n ? l.b : l.a) << "host " << n;
      std::uint32_t addr = 0;
      for (const auto& [a, node] : topo.dst_node) {
        if (node == n) {
          addr = a;
          break;
        }
      }
      EXPECT_EQ(fabric.host_at(n).address(), addr) << "host " << n;
    }
    EXPECT_EQ(fabric.link_at(-1, 0), -1);
    EXPECT_EQ(fabric.link_at(topo.num_nodes, 0), -1);
  }
  EXPECT_EQ(doubled.link_at(0, 0), 0);
  EXPECT_EQ(doubled.dst_node.begin()->second, 4);
}

TEST(FabricWiring, HostWithoutUplinkConstructsButCannotSend) {
  const auto artifacts =
      compile::compile_source(apps::gray_failure_p4r_source());
  auto topo = net::Topology::leaf_spine(2, 2, 1);
  const net::NodeId lonely = topo.num_nodes++;  // a host with no links
  sim::EventLoop loop;
  net::Fabric fabric(loop, artifacts.prog, topo);
  EXPECT_EQ(fabric.link_at(lonely, 0), -1);
  EXPECT_EQ(fabric.host_at(lonely).address(), 0u);
  EXPECT_THROW(fabric.shard_of(lonely), PreconditionError);
  EXPECT_THROW(fabric.host_at(lonely).send(fabric.factory().make(64)),
               PreconditionError);
  EXPECT_EQ(fabric.stats().host_tx_pkts, 0u);
}

TEST(FabricWiring, LinkOutsideTheNodeRangeOrOnANegativePortIsUserError) {
  const auto artifacts =
      compile::compile_source(apps::gray_failure_p4r_source());
  auto build = [&](net::Topology::Link extra) {
    auto topo = net::Topology::leaf_spine(2, 2, 1);
    topo.links.push_back(extra);
    sim::EventLoop loop;
    net::Fabric fabric(loop, artifacts.prog, std::move(topo));
  };
  const int nodes = net::Topology::leaf_spine(2, 2, 1).num_nodes;
  EXPECT_THROW(build({0, nodes, 5, 0, 1.0}), UserError);
  EXPECT_THROW(build({-1, 0, 0, 5, 1.0}), UserError);
  EXPECT_THROW(build({0, 1, -1, 7, 1.0}), UserError);
  EXPECT_THROW(build({0, 1, 7, -2, 1.0}), UserError);
  EXPECT_NO_THROW(build({0, 1, 7, 7, 1.0}));
}

TEST(FaultInjector, FlapEndsUp) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::Fabric fabric(loop, artifacts.prog, net::Topology::leaf_spine(2, 2, 1));
  net::FaultInjector inj(fabric);
  net::FaultSpec flap;
  flap.kind = net::FaultSpec::Kind::kFlap;
  flap.link = 0;
  flap.at = kMicrosecond;
  flap.duration = 5 * kMicrosecond;
  flap.flap_period = kMicrosecond;
  inj.schedule(flap);
  loop.run();
  EXPECT_FALSE(fabric.link(0).down(0));
  EXPECT_FALSE(fabric.link(0).down(1));
}

TEST(FaultInjector, FlapTransitionsOnSerializationBoundary) {
  // Pins the boundary semantics of kFlap against frames whose serialization
  // lands exactly on the toggle instants. Link rate is chosen so a 1000B
  // frame serializes in exactly one flap period (1000ns):
  //   flap at=1000 period=1000 duration=3000
  //   -> down@1000, up@2000, down@3000, forced up@4000 (duration end).
  // Rules pinned:
  //   * down gates transmit ENTRY only — a frame accepted before a down
  //     transition still delivers even if its wire time spans the outage;
  //   * a transition takes effect at its own timestamp: a transmit at
  //     exactly t=at is dropped, a transmit at exactly t=at+period (up
  //     edge) and at t=at+duration (forced-up edge) both deliver.
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::FabricConfig fc;
  fc.default_link.gbps = 8.0;  // 1000B -> exactly 1000ns
  fc.default_link.propagation = 100;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::leaf_spine(2, 2, 1),
                     fc);
  net::FaultInjector inj(fabric);

  net::FaultSpec flap;
  flap.kind = net::FaultSpec::Kind::kFlap;
  flap.link = 0;
  flap.at = 1000;
  flap.duration = 3000;  // exact multiple of the period: ends on a toggle
  flap.flap_period = 1000;
  inj.schedule(flap);  // scheduled first: transitions win same-instant ties

  net::Link& link = fabric.link(0);
  ASSERT_EQ(link.serialization_time(1000), 1000);
  const net::NodeId from = link.end_a().node;
  sim::PacketFactory fac(artifacts.prog);
  auto send_at = [&](Time t) {
    loop.schedule_at(t, [&] { link.transmit(from, fac.make(1000)); });
  };
  send_at(500);   // up; serialization 500..1500 spans down@1000 -> delivers
  send_at(1000);  // exactly at the down edge -> dropped at TX
  send_at(2000);  // exactly at the up edge; wire time ends at down@3000
  send_at(3500);  // inside the final down interval -> dropped
  send_at(4000);  // exactly at the forced-up edge -> delivers
  loop.run();

  EXPECT_FALSE(link.down(0));
  EXPECT_EQ(link.dir_stats(0).tx_pkts, 3u);
  EXPECT_EQ(link.dir_stats(0).delivered_pkts, 3u);
  EXPECT_EQ(link.dir_stats(0).dropped_pkts, 2u);
  // down/up/down + the forced final up.
  EXPECT_EQ(inj.log().size(), 4u);
  EXPECT_EQ(inj.log().back(), "4000 " + link.name() + " up");
}

// ---------------------------------------------------------------------------
// Fabric: two-switch ping-pong with exact transit accounting
// ---------------------------------------------------------------------------

TEST(Fabric, TwoSwitchPingPongTransitMatchesLinkPlusPipeline) {
  // host2 -- sw0 -- sw1 -- host3, routed by the gray-failure program's
  // route table (installed by each switch's agent prologue).
  net::Topology topo;
  topo.num_nodes = 4;
  topo.num_switches = 2;
  topo.links = {{0, 1, 0, 0, 1.0},   // sw0 p0 <-> sw1 p0
                {0, 2, 1, 0, 1.0},   // sw0 p1 <-> host2
                {1, 3, 1, 0, 1.0}};  // sw1 p1 <-> host3
  topo.dst_node = {{0x0a000001u, 2}, {0x0a000002u, 3}};

  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  sim::EventLoop loop;
  net::FabricConfig fc;
  fc.default_link.gbps = 25.0;
  fc.default_link.propagation = 200;
  net::Fabric fabric(loop, artifacts.prog, topo, fc);

  net::FabricAgentHarness harness(fabric, artifacts);
  harness.add_all_switches();
  std::vector<std::shared_ptr<apps::GrayFailureState>> states;
  for (net::NodeId n = 0; n < 2; ++n) {
    auto st = std::make_shared<apps::GrayFailureState>();
    st->cfg.num_ports = 1;
    st->topo = topo;
    st->self_node = n;
    states.push_back(st);
  }
  harness.run_prologue([&](net::NodeId n, agent::ReactionContext& ctx) {
    states[static_cast<std::size_t>(n)]->install_initial_routes(ctx);
  });

  const std::uint32_t kBytes = 750;
  Time sent_at = -1, rx_at = -1;
  fabric.host_at(3).set_on_receive(
      [&](const sim::Packet&, Time t) { rx_at = t; });

  auto pkt = fabric.factory().make(kBytes);
  fabric.factory().set(pkt, "ipv4.dstAddr", 0x0a000002u);
  fabric.factory().set(pkt, "ipv4.protocol", 6);
  sent_at = loop.now();
  fabric.host_at(2).send(std::move(pkt));
  loop.run();

  ASSERT_GE(rx_at, 0);
  const Duration ser = fabric.link(0).serialization_time(kBytes);
  const Duration tm_tx =
      fabric.switch_at(0).traffic_manager().transmission_time(kBytes);
  const auto& sw_cfg = fabric.switch_at(0).config();
  const Duration per_link = ser + fc.default_link.propagation;
  const Duration per_switch =
      sw_cfg.ingress_latency + tm_tx + sw_cfg.egress_latency;
  EXPECT_EQ(rx_at - sent_at, 3 * per_link + 2 * per_switch);

  EXPECT_EQ(fabric.stats().host_tx_pkts, 1u);
  EXPECT_EQ(fabric.stats().host_rx_pkts, 1u);
  EXPECT_EQ(fabric.stats().unwired_tx_pkts, 0u);

  // The fabric-level transit histogram saw exactly this packet.
  const auto* hist =
      loop.telemetry().metrics().find_histogram("net.fabric.transit_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_EQ(hist->stats().mean(), static_cast<double>(rx_at - sent_at));
}

// ---------------------------------------------------------------------------
// End-to-end scenarios
// ---------------------------------------------------------------------------

TEST(GrayFabricScenario, DetectsReroutesAndRestoresDelivery) {
  net::GrayScenarioConfig cfg;
  cfg.seed = 11;
  net::GrayFabricScenario scenario(cfg);
  const auto res = scenario.run();

  EXPECT_GE(res.detected_at, res.fault_at);
  EXPECT_GE(res.rerouted_at, res.detected_at);
  ASSERT_TRUE(res.restored());
  EXPECT_GT(res.restored_at, res.rerouted_at);
  // The acceptance band: delivery back within ~250us of the fault.
  EXPECT_LE(res.restoration_latency(), 250 * kMicrosecond);
  EXPECT_GT(res.delivered, res.delivered_before_fault);

  // After the reroute, the degraded link's final utilization window holds
  // only residual heartbeats (~2% at 64B/us), not data traffic (~32%).
  const auto* util = scenario.loop().telemetry().metrics().find_gauge(
      "net.link." + res.fault_link_name + ".ab.util");
  ASSERT_NE(util, nullptr);
  EXPECT_LT(util->value(), 0.05);

  // Every switch's agent made progress concurrently in virtual time. With
  // 4 busy-looping agents sharing the clock (~15us iterations), each gets
  // roughly (run_until - prologue) / (4 * 15us) ~ 6-8 iterations.
  for (net::NodeId n = 0; n < scenario.fabric().num_switches(); ++n) {
    EXPECT_GT(scenario.harness().iterations(n), 3u) << "agent " << n;
  }
}

TEST(GrayFabricScenario, SameSeedReplaysIdentically) {
  net::GrayScenarioConfig cfg;
  cfg.seed = 21;
  cfg.fault_loss = 0.9;  // partial loss: the seeded drop process matters
  net::GrayFabricScenario a(cfg);
  net::GrayFabricScenario b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.restored_at, rb.restored_at);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(a.loop().telemetry().metrics().snapshot_json(),
            b.loop().telemetry().metrics().snapshot_json());
}

TEST(GrayFabricScenario, NoFaultMeansNoDetection) {
  net::GrayScenarioConfig cfg;
  cfg.seed = 31;
  cfg.inject_fault = false;
  cfg.run_until = 300 * kMicrosecond;
  net::GrayFabricScenario scenario(cfg);
  const auto res = scenario.run();
  EXPECT_LT(res.detected_at, 0);
  EXPECT_LT(res.rerouted_at, 0);
  // Lossless links, no fault: everything but the in-flight tail arrives.
  EXPECT_GE(res.delivered + 5, res.sent);
  EXPECT_GT(res.delivered, 0u);
}

TEST(GrayFabricScenario, RejectsRestoreConsecutiveBelowOne) {
  // K = 0 would read the front of an empty delivery window; K = -1 would
  // wrap to a huge window and never restore.
  for (const int k : {0, -1}) {
    net::GrayScenarioConfig cfg;
    cfg.restore_consecutive = k;
    net::GrayFabricScenario scenario(cfg);
    EXPECT_THROW(scenario.run(), PreconditionError) << "K = " << k;
  }
}

TEST(EcmpFabricScenario, ShiftRebalancesRealLinkLoads) {
  net::EcmpScenarioConfig cfg;
  cfg.seed = 11;
  net::EcmpFabricScenario scenario(cfg);
  const auto res = scenario.run();

  EXPECT_GE(res.first_shift_at, 0);
  EXPECT_GE(res.shifts, 1u);
  // Total polarization before (every flow hashes identically), spread after.
  EXPECT_GT(res.share_before, 0.95);
  EXPECT_LT(res.share_after, 0.8);
  EXPECT_TRUE(res.rebalanced());
  EXPECT_GT(res.delivered, 0u);
}

}  // namespace
}  // namespace mantis
