// Driver-layer tests: latency model shapes, channel serialization/queueing,
// batching, memoization, sync/async interplay.
#include <gtest/gtest.h>

#include "driver/driver.hpp"
#include "p4r/sema.hpp"

namespace mantis::driver {
namespace {

const char* kSrc = R"P4R(
header_type h_t { fields { a : 32; } }
header h_t h;
register r { width : 32; instance_count : 64; }
action set_out(port) { modify_field(standard_metadata.egress_spec, port); }
table t {
  reads { h.a : exact; }
  actions { set_out; }
  size : 128;
}
control ingress { apply(t); }
control egress { }
)P4R";

struct DriverFixture : ::testing::Test {
  sim::EventLoop loop;
  p4::Program prog;
  std::unique_ptr<sim::Switch> sw;

  void SetUp() override {
    prog = p4r::frontend(kSrc).prog;
    sw = std::make_unique<sim::Switch>(loop, prog);
  }

  static p4::EntrySpec entry(std::uint64_t key, std::uint64_t port) {
    p4::EntrySpec spec;
    spec.key.push_back(p4::MatchValue{key, ~std::uint64_t{0}});
    spec.action = "set_out";
    spec.action_args = {port};
    return spec;
  }
};

TEST_F(DriverFixture, SyncOpsAdvanceVirtualTimeByModelCost) {
  Driver drv(*sw);
  const auto& costs = drv.costs();
  const Time t0 = loop.now();
  drv.read_register("r", 0);
  EXPECT_EQ(loop.now() - t0, costs.packed_words_read(1));

  const Time t1 = loop.now();
  drv.read_register_range("r", 0, 15);  // 16 cells x 4B
  EXPECT_EQ(loop.now() - t1, costs.range_read(64));

  const Time t2 = loop.now();
  drv.add_entry("t", entry(1, 2));  // cold
  EXPECT_EQ(loop.now() - t2, costs.table_add(false));

  const Time t3 = loop.now();
  drv.add_entry("t", entry(2, 2));  // memoized (same table+action)
  EXPECT_EQ(loop.now() - t3, costs.table_add(true));
}

TEST_F(DriverFixture, RangeReadCheaperPerByteThanScatteredWords) {
  Driver drv(*sw);
  const auto& costs = drv.costs();
  // 64 scattered 32-bit words vs one 256B contiguous range (Fig 10a shape).
  EXPECT_GT(costs.packed_words_read(64), costs.range_read(256));
}

TEST_F(DriverFixture, MemoizationDiscountsAndCanBeDisabled) {
  Driver warm(*sw);
  warm.memoize("t", "set_out");
  const Time t0 = loop.now();
  warm.add_entry("t", entry(10, 1));
  const Duration warm_cost = loop.now() - t0;
  EXPECT_EQ(warm_cost, warm.costs().table_add(true));

  DriverOptions no_memo;
  no_memo.enable_memoization = false;
  Driver cold(*sw, no_memo);
  const Time t1 = loop.now();
  cold.add_entry("t", entry(11, 1));
  cold.add_entry("t", entry(12, 1));
  // Every op stays cold.
  EXPECT_EQ(loop.now() - t1, 2 * cold.costs().table_add(false));
}

TEST_F(DriverFixture, BatchSharesOverhead) {
  Driver drv(*sw);
  drv.memoize("t", "set_out");
  BatchBuilder batch;
  for (int i = 0; i < 8; ++i) batch.add_entry("t", entry(100 + i, 1));
  const Time t0 = loop.now();
  const auto handles = drv.run_batch(std::move(batch));
  const Duration batched = loop.now() - t0;
  EXPECT_EQ(handles.size(), 8u);
  // One shared PCIe round trip instead of eight.
  const Duration unbatched = 8 * drv.costs().table_add(true);
  EXPECT_LT(batched, unbatched);
  EXPECT_EQ(batched, drv.costs().batch_overhead + drv.costs().pcie_rtt +
                         8 * (drv.costs().table_add(true) - drv.costs().pcie_rtt));
}

TEST_F(DriverFixture, BatchingAblationFallsBackToSingles) {
  DriverOptions opts;
  opts.enable_batching = false;
  Driver drv(*sw, opts);
  drv.memoize("t", "set_out");
  BatchBuilder batch;
  for (int i = 0; i < 4; ++i) batch.add_entry("t", entry(200 + i, 1));
  const Time t0 = loop.now();
  drv.run_batch(std::move(batch));
  EXPECT_EQ(loop.now() - t0, 4 * drv.costs().table_add(true));
}

TEST_F(DriverFixture, BatchReturnsOneResultPerOpInBothModes) {
  for (const bool batching : {true, false}) {
    DriverOptions opts;
    opts.enable_batching = batching;
    Driver drv(*sw, opts);
    drv.memoize("t", "set_out");
    const std::uint64_t key = batching ? 7 : 8;
    BatchBuilder batch;
    batch.add_entry("t", entry(key, key));
    batch.write_register("r", 3, key);
    batch.read_register("r", 3);
    batch.set_default("t", "set_out", {5});
    const auto& c = drv.costs();
    const Duration solo = c.table_add(true) + c.register_write() +
                          c.packed_words_read(1) + c.set_default();
    const Time t0 = loop.now();
    const auto results = drv.run_batch(std::move(batch));
    // Batched: one shared round trip instead of four. Fallback: solo costs.
    EXPECT_EQ(loop.now() - t0,
              batching ? c.batch_overhead + solo - 3 * c.pcie_rtt : solo);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].kind, Op::Kind::kAdd);
    EXPECT_EQ(sw->table("t").entry(results[0].handle).action_args[0], key);
    EXPECT_EQ(results[1].kind, Op::Kind::kRegWrite);
    EXPECT_EQ(results[2].kind, Op::Kind::kRegRead);
    EXPECT_EQ(results[2].value, key);  // sees the earlier write, batch order
    EXPECT_EQ(results[3].kind, Op::Kind::kSetDefault);
  }
}

TEST_F(DriverFixture, BatchMutationsApplyAtomicallyAtCompletion) {
  Driver drv(*sw);
  BatchBuilder batch;
  batch.add_entry("t", entry(1, 1));
  batch.add_entry("t", entry(2, 2));
  // During the batch occupancy, inject a packet: it must see NEITHER entry
  // (mutations land at completion).
  bool mid_check_done = false;
  loop.schedule_at(loop.now() + 100, [&] {
    EXPECT_EQ(sw->table("t").entry_count(), 0u);
    mid_check_done = true;
  });
  drv.run_batch(std::move(batch));
  EXPECT_TRUE(mid_check_done);
  EXPECT_EQ(sw->table("t").entry_count(), 2u);
}

TEST_F(DriverFixture, AsyncOpsQueueBehindSyncOps) {
  Driver drv(*sw);
  const auto h = drv.add_entry("t", entry(1, 1));

  // Launch an async modify while the channel is busy with a long range read.
  Duration async_latency = -1;
  loop.schedule_at(loop.now() + 10, [&] {
    drv.async_modify_entry("t", h, "set_out", {9},
                           [&](Duration lat) { async_latency = lat; });
  });
  drv.read_register_range("r", 0, 63);  // occupies the channel
  loop.run();
  ASSERT_GE(async_latency, 0);
  // Latency includes queueing behind the in-flight read.
  EXPECT_GT(async_latency, drv.costs().table_mod(true));
  EXPECT_EQ(sw->table("t").entry(h).action_args[0], 9u);
}

TEST_F(DriverFixture, SetDefaultWithWrongArgCountRejected) {
  Driver drv(*sw);
  EXPECT_THROW(drv.set_default("t", "set_out", {}), UserError);
  // The table keeps its default, so a packet that misses still runs.
  auto pkt = sw->factory().make();
  sw->factory().set(pkt, "h.a", 5);
  sw->inject(std::move(pkt), 0);
  loop.run();
  EXPECT_EQ(sw->ingress_stats().table_misses, 1u);
  drv.set_default("t", "set_out", {3});
}

TEST_F(DriverFixture, ChannelTracksBusyTime) {
  Driver drv(*sw);
  drv.read_register("r", 0);
  drv.read_register("r", 1);
  EXPECT_EQ(drv.channel().busy_time(), 2 * drv.costs().packed_words_read(1));
  EXPECT_EQ(drv.channel().ops_submitted(), 2u);
}

TEST_F(DriverFixture, ReadPackedWordsReturnsRequestOrder) {
  Driver drv(*sw);
  sw->registers().write("r", 3, 33);
  sw->registers().write("r", 1, 11);
  const auto vals = drv.read_packed_words({{"r", 3}, {"r", 1}});
  EXPECT_EQ(vals, (std::vector<std::uint64_t>{33, 11}));
}

TEST_F(DriverFixture, AsyncReadRegisterRange) {
  Driver drv(*sw);
  sw->registers().write("r", 2, 7);
  std::vector<std::uint64_t> got;
  drv.async_read_register_range("r", 0, 3,
                                [&](std::vector<std::uint64_t> v, Duration) {
                                  got = std::move(v);
                                });
  loop.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 0, 7, 0}));
}

}  // namespace
}  // namespace mantis::driver
