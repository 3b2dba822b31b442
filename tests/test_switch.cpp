// Integration tests for the assembled switch: pipelines, traffic manager,
// queue-depth metadata, recirculation, port failures, timestamps.
#include <gtest/gtest.h>

#include "p4r/sema.hpp"
#include "sim/switch.hpp"

namespace mantis::sim {
namespace {

/// A plain (non-malleable) forwarding program built through the frontend.
const char* kForwarderSrc = R"P4R(
header_type ipv4_t {
  fields { srcAddr : 32; dstAddr : 32; protocol : 8; }
}
header ipv4_t ipv4;

action set_egress(port) { modify_field(standard_metadata.egress_spec, port); }
action recirc() { modify_field(standard_metadata.egress_spec, 63); }

table route {
  reads { ipv4.dstAddr : exact; }
  actions { set_egress; recirc; _drop; }
  default_action : _drop;
  size : 32;
}

register seen_r { width : 32; instance_count : 4; }
header_type fw_meta_t { fields { c : 32; } }
metadata fw_meta_t fw_meta;
action tally() {
  register_read(fw_meta.c, seen_r, 0);
  add_to_field(fw_meta.c, 1);
  register_write(seen_r, 0, fw_meta.c);
}
table count_all {
  actions { tally; }
  default_action : tally;
  size : 1;
}

control ingress {
  apply(count_all);
  apply(route);
}
control egress { }
)P4R";

struct SwitchFixture : ::testing::Test {
  EventLoop loop;
  p4::Program prog;
  std::unique_ptr<Switch> sw;

  void SetUp() override {
    prog = p4r::frontend(kForwarderSrc).prog;
    SwitchConfig cfg;
    cfg.num_ports = 8;
    cfg.port_gbps = 10.0;
    sw = std::make_unique<Switch>(loop, prog, cfg);
  }

  void add_route(std::uint32_t dst, const std::string& action,
                 std::vector<std::uint64_t> args) {
    p4::EntrySpec spec;
    spec.key.push_back(p4::MatchValue{dst, ~std::uint64_t{0}});
    spec.action = action;
    spec.action_args = std::move(args);
    sw->table("route").add_entry(spec);
  }

  Packet make(std::uint32_t dst, std::uint32_t bytes = 100) {
    auto pkt = sw->factory().make(bytes);
    sw->factory().set(pkt, "ipv4.dstAddr", dst);
    return pkt;
  }
};

TEST_F(SwitchFixture, ForwardsToConfiguredPort) {
  add_route(0xc0a80001, "set_egress", {5});
  int out_port = -1;
  sw->set_on_transmit([&](const Packet&, int port, Time) { out_port = port; });
  sw->inject(make(0xc0a80001), 0);
  loop.run();
  EXPECT_EQ(out_port, 5);
  EXPECT_EQ(sw->port_stats(0).rx_pkts, 1u);
  EXPECT_EQ(sw->port_stats(5).tx_pkts, 1u);
}

TEST_F(SwitchFixture, DefaultDropCounts) {
  sw->inject(make(0xdeadbeef), 2);
  loop.run();
  EXPECT_EQ(sw->port_stats(2).rx_drops, 1u);
  for (int p = 0; p < 8; ++p) EXPECT_EQ(sw->port_stats(p).tx_pkts, 0u);
}

TEST_F(SwitchFixture, TransmissionTimeMatchesLineRate) {
  add_route(1, "set_egress", {3});
  Time tx_time = -1;
  sw->set_on_transmit([&](const Packet&, int, Time t) { tx_time = t; });
  sw->inject(make(1, /*bytes=*/1250), 0);
  loop.run();
  // 1250B at 10 Gbps = 1000ns serialization + ingress 400 + egress 300.
  EXPECT_EQ(tx_time, 400 + 1000 + 300);
}

TEST_F(SwitchFixture, QueueBuildsUpAndQdepthMetadataVisible) {
  add_route(1, "set_egress", {3});
  std::vector<std::uint64_t> deq_depths;
  sw->set_on_transmit([&](const Packet& pkt, int, Time) {
    deq_depths.push_back(sw->factory().get(pkt, "standard_metadata.deq_qdepth"));
  });
  // Burst of 10 packets at once -> queue builds.
  for (int i = 0; i < 10; ++i) sw->inject(make(1, 1250), 0);
  loop.run();
  ASSERT_EQ(deq_depths.size(), 10u);
  // First dequeue saw the longest remaining queue.
  EXPECT_GT(deq_depths.front(), deq_depths.back());
}

TEST_F(SwitchFixture, TailDropWhenQueueFull) {
  SwitchConfig cfg;
  cfg.num_ports = 4;
  cfg.port_gbps = 1.0;
  cfg.queue_capacity_bytes = 3000;
  Switch small(loop, prog, cfg);
  p4::EntrySpec spec;
  spec.key.push_back(p4::MatchValue{1, ~std::uint64_t{0}});
  spec.action = "set_egress";
  spec.action_args = {2};
  small.table("route").add_entry(spec);
  for (int i = 0; i < 10; ++i) {
    auto pkt = small.factory().make(1500);
    small.factory().set(pkt, "ipv4.dstAddr", 1);
    small.inject(std::move(pkt), 0);
  }
  loop.run();
  EXPECT_GT(small.traffic_manager().stats(2).tail_drops, 0u);
  EXPECT_LT(small.port_stats(2).tx_pkts, 10u);
}

TEST_F(SwitchFixture, DownPortDropsRxAndTx) {
  add_route(1, "set_egress", {3});
  sw->set_port_up(3, false);
  sw->inject(make(1), 0);
  loop.run();
  EXPECT_EQ(sw->port_stats(3).tx_pkts, 0u);

  sw->set_port_up(0, false);
  sw->inject(make(1), 0);
  EXPECT_EQ(sw->port_stats(0).rx_drops, 1u);
  // Recovery works.
  sw->set_port_up(0, true);
  sw->set_port_up(3, true);
  sw->inject(make(1), 0);
  loop.run();
  EXPECT_EQ(sw->port_stats(3).tx_pkts, 1u);
}

TEST_F(SwitchFixture, IdlePortHasZeroDepthAndNoDrops) {
  add_route(1, "set_egress", {1});
  sw->inject(make(1), 0);
  loop.run();
  EXPECT_EQ(sw->port_stats(1).tx_pkts, 1u);
  // Port 5 never queued a packet.
  EXPECT_EQ(sw->queue_depth_pkts(5), 0u);
  EXPECT_EQ(sw->queue_depth_bytes(5), 0u);
  sw->set_port_up(5, false);
  EXPECT_EQ(sw->traffic_manager().stats(5).tail_drops, 0u);
  EXPECT_EQ(sw->traffic_manager().stats(5).enq_pkts, 0u);
  sw->set_port_up(5, true);
  add_route(2, "set_egress", {5});
  sw->inject(make(2), 0);
  loop.run();
  EXPECT_EQ(sw->port_stats(5).tx_pkts, 1u);
}

TEST_F(SwitchFixture, RecirculationReprocessesPacket) {
  // dst 7 recirculates; after recirculation the packet hits route again and
  // (dst unchanged) recirculates forever — so use a chain: first pass
  // rewrites nothing, so instead route dst 7 -> recirc once and check the
  // ingress pipeline counted it twice via the seen_r register.
  add_route(7, "recirc", {});
  sw->inject(make(7), 0);
  // Run a bounded number of events; the packet ping-pongs via recirculation.
  loop.run(20);
  EXPECT_GT(sw->registers().read("seen_r", 0), 2u);
}

TEST_F(SwitchFixture, IngressTimestampSet) {
  add_route(1, "set_egress", {3});
  std::uint64_t ing_ts = 0, egr_ts = 0;
  sw->set_on_transmit([&](const Packet& pkt, int, Time) {
    ing_ts = sw->factory().get(pkt, "standard_metadata.ingress_global_timestamp");
    egr_ts = sw->factory().get(pkt, "standard_metadata.egress_global_timestamp");
  });
  loop.schedule_at(5000, [&] { sw->inject(make(1), 0); });
  loop.run();
  EXPECT_EQ(ing_ts, 5u);  // microseconds
  EXPECT_GE(egr_ts, ing_ts);
}

TEST_F(SwitchFixture, PacketsSeeSingleEntryUpdateAtomically) {
  // The RMT guarantee the update protocol builds on: an entry modification
  // lands between packets, never mid-packet.
  add_route(1, "set_egress", {3});
  std::vector<int> ports;
  sw->set_on_transmit([&](const Packet&, int port, Time) { ports.push_back(port); });
  for (int i = 0; i < 6; ++i) {
    loop.schedule_at(i * 1000, [&] { sw->inject(make(1), 0); });
  }
  loop.schedule_at(3100, [&] {
    const auto h = *sw->table("route").find_entry({{1, ~std::uint64_t{0}}});
    sw->table("route").modify_entry(h, "set_egress", {6});
  });
  loop.run();
  ASSERT_EQ(ports.size(), 6u);
  // Monotone switch from 3 to 6, no interleaving.
  bool switched = false;
  for (const int p : ports) {
    if (p == 6) switched = true;
    EXPECT_EQ(p, switched ? 6 : 3);
  }
  EXPECT_TRUE(switched);
}

}  // namespace
}  // namespace mantis::sim
