// Batched asynchronous driver runtime (src/driver/async): calibrated batch
// costs, completion-queue ordering under interleaved sync clients, batch
// atomicity on mid-batch errors, pipelining semantics, the degrade path,
// and async-vs-sync final-state equivalence.
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "driver/async/async_driver.hpp"
#include "p4r/sema.hpp"

namespace mantis::driver {
namespace {

const char* kSrc = R"P4R(
header_type h_t { fields { a : 32; } }
header h_t h;
register r { width : 32; instance_count : 64; }
action set_out(port) { modify_field(standard_metadata.egress_spec, port); }
action drop_it() { drop(); }
table t {
  reads { h.a : exact; }
  actions { set_out; drop_it; }
  size : 8;
}
control ingress { apply(t); }
control egress { }
)P4R";

struct AsyncDriverFixture : ::testing::Test {
  sim::EventLoop loop;
  p4::Program prog;
  std::unique_ptr<sim::Switch> sw;
  std::unique_ptr<Driver> drv;

  void SetUp() override {
    prog = p4r::frontend(kSrc).prog;
    sw = std::make_unique<sim::Switch>(loop, prog);
    drv = std::make_unique<Driver>(*sw);
  }

  static p4::EntrySpec entry(std::uint64_t key, std::uint64_t port) {
    p4::EntrySpec spec;
    spec.key.push_back(p4::MatchValue{key, ~std::uint64_t{0}});
    spec.action = "set_out";
    spec.action_args = {port};
    return spec;
  }
};

TEST_F(AsyncDriverFixture, BatchPaysCalibratedPrepAndDmaOnce) {
  drv->memoize("t", "set_out");
  AsyncDriver adrv(*drv);
  const auto& costs = drv->costs();

  BatchBuilder b;
  for (int i = 0; i < 4; ++i) b.add_entry("t", entry(i, 1));
  const Time t0 = loop.now();
  adrv.submit(std::move(b));
  const auto c = adrv.reap();

  const Duration solo = costs.table_add(true);
  const Duration prep = costs.batch_overhead + 4 * costs.batch_prep(solo);
  const Duration dma = costs.pcie_rtt + 4 * costs.batch_dma(solo);
  EXPECT_EQ(c.prep_start, t0);
  EXPECT_EQ(c.dma_start, t0 + prep);
  EXPECT_EQ(c.completed, t0 + prep + dma);
  EXPECT_EQ(loop.now(), c.completed);
  // Far cheaper than even the synchronous batch (which pays full solo costs
  // net of the shared round trip).
  const Duration sync_batch =
      costs.batch_overhead + costs.pcie_rtt + 4 * (solo - costs.pcie_rtt);
  EXPECT_LT(c.completed - t0, sync_batch);

  ASSERT_TRUE(c.ok);
  ASSERT_EQ(c.results.size(), 4u);
  for (const auto& r : c.results) {
    EXPECT_TRUE(r.ok);
    EXPECT_NE(r.handle, 0u);
  }
  EXPECT_EQ(sw->table("t").entry_count(), 4u);
}

TEST_F(AsyncDriverFixture, ColdAndMemoizedOpsPricedIndividuallyInOneBatch) {
  drv->memoize("t", "set_out");
  AsyncDriver adrv(*drv);
  const auto& costs = drv->costs();

  // set_out is memoized, drop_it is cold; both adds share one batch.
  BatchBuilder b;
  b.add_entry("t", entry(1, 1));
  p4::EntrySpec cold = entry(2, 0);
  cold.action = "drop_it";
  cold.action_args = {};
  b.add_entry("t", std::move(cold));

  const Time t0 = loop.now();
  adrv.submit(std::move(b));
  const auto c = adrv.reap();

  const Duration warm_solo = costs.table_add(true);
  const Duration cold_solo = costs.table_add(false);
  const Duration prep = costs.batch_overhead + costs.batch_prep(warm_solo) +
                        costs.batch_prep(cold_solo);
  const Duration dma = costs.pcie_rtt + costs.batch_dma(warm_solo) +
                       costs.batch_dma(cold_solo);
  EXPECT_EQ(c.completed - t0, prep + dma);
  EXPECT_TRUE(c.ok);

  // The cold touch memoized (t, drop_it): a second identical batch is
  // cheaper by the warm/cold prep+dma difference.
  BatchBuilder b2;
  p4::EntrySpec warm2 = entry(3, 0);
  warm2.action = "drop_it";
  warm2.action_args = {};
  b2.add_entry("t", std::move(warm2));
  const Time t1 = loop.now();
  adrv.submit(std::move(b2));
  EXPECT_EQ(adrv.reap().completed - t1,
            costs.batch_overhead + costs.batch_prep(warm_solo) +
                costs.pcie_rtt + costs.batch_dma(warm_solo));
}

TEST_F(AsyncDriverFixture, CompletionsReapInSubmitOrderAroundSyncClients) {
  drv->memoize("t", "set_out");
  AsyncDriver adrv(*drv);

  BatchBuilder b1;
  b1.add_entry("t", entry(1, 1));
  const BatchId id1 = adrv.submit(std::move(b1));

  // A synchronous client cuts in while batch 1 is in flight: the channel is
  // FIFO, so the sync op lands strictly after batch 1's DMA.
  drv->write_register("r", 5, 55);
  const Time sync_done = loop.now();
  EXPECT_GT(sync_done, adrv.completion_time(id1));
  EXPECT_EQ(sw->registers().read("r", 5), 55u);

  BatchBuilder b2;
  b2.read_register("r", 5);
  const BatchId id2 = adrv.submit(std::move(b2));
  EXPECT_GT(adrv.completion_time(id2), sync_done);

  // Reaping returns submit order regardless of when each finished.
  const auto c1 = adrv.reap();
  const auto c2 = adrv.reap();
  EXPECT_EQ(c1.id, id1);
  EXPECT_EQ(c2.id, id2);
  // Batch 2's read observed the sync client's write (it ran later).
  ASSERT_EQ(c2.results.size(), 1u);
  EXPECT_EQ(c2.results[0].value, 55u);
}

TEST_F(AsyncDriverFixture, MidBatchHandleErrorAbortsWholeBatch) {
  drv->memoize("t", "set_out");
  const auto h = drv->add_entry("t", entry(9, 9));
  drv->delete_entry("t", h);  // h is now stale
  AsyncDriver adrv(*drv);

  const auto count_before = sw->table("t").entry_count();
  const auto regs_before = sw->registers().read("r", 0);

  BatchBuilder b;
  b.add_entry("t", entry(1, 1));          // would succeed alone
  b.modify_entry("t", h, "set_out", {2});  // stale handle
  b.write_register("r", 0, 42);            // would succeed alone
  adrv.submit(std::move(b));
  const auto c = adrv.reap();

  EXPECT_FALSE(c.ok);
  ASSERT_EQ(c.results.size(), 3u);
  EXPECT_FALSE(c.results[0].ok);
  EXPECT_NE(c.results[0].error.find("aborted: op 1"), std::string::npos);
  EXPECT_FALSE(c.results[1].ok);
  EXPECT_EQ(c.results[1].error.find("aborted"), std::string::npos)
      << "the failing op carries its own error, not the abort marker";
  EXPECT_FALSE(c.results[2].ok);

  // Atomicity: nothing applied.
  EXPECT_EQ(sw->table("t").entry_count(), count_before);
  EXPECT_EQ(sw->registers().read("r", 0), regs_before);
}

TEST_F(AsyncDriverFixture, SpecAndDuplicateErrorsAbortWholeBatch) {
  drv->memoize("t", "set_out");
  const auto live = drv->add_entry("t", entry(7, 7));
  AsyncDriver adrv(*drv);
  auto no_args = entry(2, 0);
  no_args.action_args.clear();  // set_out takes one arg

  // Each batch opens with an add that would succeed alone; the op after it
  // fails the check apply would run, so nothing may apply.
  std::vector<BatchBuilder> bad(6);
  for (auto& b : bad) b.add_entry("t", entry(1, 1));
  bad[0].add_entry("t", no_args);                    // arg count
  bad[1].add_entry("t", entry(1, 2));                // key added earlier in batch
  bad[2].add_entry("t", entry(7, 2));                // live key
  bad[3].set_default("t", "set_out", {});            // default arg count
  bad[4].modify_entry("t", live, "set_out", {1, 2}); // modify arg count
  bad[5].delete_entry("t", live);                    // deleted twice
  bad[5].delete_entry("t", live);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    adrv.submit(std::move(bad[i]));
    const auto c = adrv.reap();
    EXPECT_FALSE(c.ok);
    EXPECT_EQ(sw->table("t").handles(), std::vector<sim::EntryHandle>{live});
    EXPECT_EQ(sw->table("t").entry(live).action_args[0], 7u);
  }

  // A key the batch deleted earlier is free for a later add.
  BatchBuilder reuse;
  reuse.delete_entry("t", live);
  reuse.add_entry("t", entry(7, 3));
  adrv.submit(std::move(reuse));
  const auto c = adrv.reap();
  ASSERT_TRUE(c.ok);
  EXPECT_EQ(sw->table("t").entry_count(), 1u);
  EXPECT_EQ(sw->table("t").entry(c.results[1].handle).action_args[0], 3u);
}

TEST_F(AsyncDriverFixture, CapacityValidatedAgainstInBatchOccupancy) {
  drv->memoize("t", "set_out");
  AsyncDriver adrv(*drv);
  // Table capacity is 8: a single batch of 9 adds must abort as a unit,
  // even though each prefix of 8 would fit.
  BatchBuilder b;
  for (int i = 0; i < 9; ++i) b.add_entry("t", entry(i, 1));
  adrv.submit(std::move(b));
  const auto c = adrv.reap();
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(sw->table("t").entry_count(), 0u);
  EXPECT_NE(c.results[8].error.find("table full"), std::string::npos);

  // A batch whose deletes make room for its adds passes the same check.
  BatchBuilder fill;
  for (int i = 0; i < 8; ++i) fill.add_entry("t", entry(100 + i, 1));
  adrv.submit(std::move(fill));
  const auto filled = adrv.reap();
  ASSERT_TRUE(filled.ok);
  BatchBuilder swap;
  swap.delete_entry("t", filled.results[0].handle);
  swap.add_entry("t", entry(200, 2));
  adrv.submit(std::move(swap));
  EXPECT_TRUE(adrv.reap().ok);
  EXPECT_EQ(sw->table("t").entry_count(), 8u);
}

TEST_F(AsyncDriverFixture, PipelineDepthGatesTheRing) {
  drv->memoize("t", "set_out");
  const auto h1 = drv->add_entry("t", entry(1, 1));
  const auto h2 = drv->add_entry("t", entry(2, 1));

  auto mk = [&](sim::EntryHandle h) {
    BatchBuilder b;
    for (int i = 0; i < 8; ++i) b.modify_entry("t", h, "set_out", {1});
    return b;
  };

  // Depth 1: batch 2's prep cannot start until batch 1 completed.
  {
    AsyncDriverOptions opts;
    opts.pipeline_depth = 1;
    AsyncDriver adrv(*drv, opts);
    adrv.submit(mk(h1));
    adrv.submit(mk(h2));
    const auto c1 = adrv.reap();
    const auto c2 = adrv.reap();
    EXPECT_GE(c2.prep_start, c1.completed);
  }
  // Depth 2: batch 2 preps while batch 1's DMA is on the wire.
  {
    AsyncDriverOptions opts;
    opts.pipeline_depth = 2;
    AsyncDriver adrv(*drv, opts);
    adrv.submit(mk(h1));
    adrv.submit(mk(h2));
    const auto c1 = adrv.reap();
    const auto c2 = adrv.reap();
    EXPECT_LT(c2.prep_start, c1.completed);
    EXPECT_EQ(c2.prep_start, c1.dma_start);  // prep chains on the driver thread
    // The wire itself stays serialized.
    EXPECT_GE(c2.completed - c2.dma_start, 0);
    EXPECT_GE(c2.completed, c1.completed);
  }
}

TEST_F(AsyncDriverFixture, TryReapOnlyAfterCompletionEvent) {
  drv->memoize("t", "set_out");
  AsyncDriver adrv(*drv);
  BatchBuilder b;
  b.add_entry("t", entry(1, 1));
  adrv.submit(std::move(b));
  EXPECT_FALSE(adrv.try_reap().has_value());
  EXPECT_EQ(adrv.in_flight(), 1u);
  loop.run();
  ASSERT_TRUE(adrv.ready());
  const auto c = adrv.try_reap();
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->ok);
  EXPECT_EQ(adrv.in_flight(), 0u);
}

TEST_F(AsyncDriverFixture, DegradeModeAppliesPerOpWithoutAtomicity) {
  DriverOptions dopts;
  dopts.enable_batching = false;
  Driver plain(*sw, dopts);
  plain.memoize("t", "set_out");
  const auto h = plain.add_entry("t", entry(9, 9));
  plain.delete_entry("t", h);  // stale
  const auto count_before = sw->table("t").entry_count();

  AsyncDriver adrv(plain);
  const auto& costs = plain.costs();
  BatchBuilder b;
  b.add_entry("t", entry(1, 1));
  b.modify_entry("t", h, "set_out", {2});  // fails alone
  b.add_entry("t", entry(2, 2));
  const Time t0 = loop.now();
  adrv.submit(std::move(b));
  const auto c = adrv.reap();

  // One full transfer per op: full solo prep serialized on the driver
  // thread, each with its own round trip (which overlaps the next op's
  // prep), no coalescing discount, no atomicity.
  EXPECT_EQ(c.completed - t0,
            2 * (costs.table_add(true) - costs.pcie_rtt) +
                (costs.table_mod(true) - costs.pcie_rtt) + costs.pcie_rtt);
  EXPECT_FALSE(c.ok);
  EXPECT_TRUE(c.results[0].ok);
  EXPECT_FALSE(c.results[1].ok);
  EXPECT_TRUE(c.results[2].ok);
  EXPECT_EQ(sw->table("t").entry_count(), count_before + 2);
}

TEST_F(AsyncDriverFixture, AsyncMatchesSyncFinalState) {
  // The same logical op stream through the sync driver and through async
  // batches must leave identical dataplane state.
  auto run_ops = [](sim::Switch& target, bool async) {
    Driver d(target);
    d.memoize("t", "set_out");
    std::vector<sim::EntryHandle> handles;
    if (async) {
      AsyncDriver a(d);
      BatchBuilder b1;
      for (int i = 0; i < 4; ++i) b1.add_entry("t", entry(i, 1));
      b1.write_register("r", 3, 7);
      a.submit(std::move(b1));
      const auto c1 = a.reap();
      for (const auto& r : c1.results) {
        if (r.kind == Op::Kind::kAdd) handles.push_back(r.handle);
      }
      BatchBuilder b2;
      b2.modify_entry("t", handles[1], "set_out", {5});
      b2.delete_entry("t", handles[3]);
      b2.set_default("t", "drop_it", {});
      a.submit(std::move(b2));
      EXPECT_TRUE(a.reap().ok);
    } else {
      for (int i = 0; i < 4; ++i) {
        handles.push_back(d.add_entry("t", entry(i, 1)));
      }
      d.write_register("r", 3, 7);
      d.modify_entry("t", handles[1], "set_out", {5});
      d.delete_entry("t", handles[3]);
      d.set_default("t", "drop_it", {});
    }
    return handles;
  };

  sim::EventLoop loop_sync, loop_async;
  sim::Switch sw_sync(loop_sync, prog), sw_async(loop_async, prog);
  const auto hs = run_ops(sw_sync, false);
  const auto ha = run_ops(sw_async, true);
  ASSERT_EQ(hs, ha);  // same allocation order => same handles

  EXPECT_EQ(sw_sync.table("t").entry_count(), sw_async.table("t").entry_count());
  for (const auto h : {hs[0], hs[1], hs[2]}) {
    const auto& es = sw_sync.table("t").entry(h);
    const auto& ea = sw_async.table("t").entry(h);
    EXPECT_EQ(es.action, ea.action);
    EXPECT_EQ(es.action_args, ea.action_args);
    EXPECT_EQ(es.key, ea.key);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sw_sync.registers().read("r", i),
              sw_async.registers().read("r", i));
  }
}

TEST_F(AsyncDriverFixture, AgentAsyncPushMatchesSyncDialogueEffects) {
  // Same program, same reaction, sync vs async push: the user-visible table
  // state after each dialogue run must match.
  const char* kProg = R"P4R(
header_type h_t { fields { k : 32; } }
header h_t h;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 64; }
control ingress { apply(mt); }
control egress { }
reaction rx(ing h.k) { }
)P4R";

  auto run = [&](bool async_push) {
    auto artifacts = compile::compile_source(kProg);
    sim::EventLoop l;
    sim::Switch s(l, artifacts.prog);
    Driver d(s);
    agent::AgentOptions aopts;
    aopts.async_push = async_push;
    agent::Agent ag(d, artifacts, aopts);
    std::vector<agent::UserEntryId> ids;
    ag.run_prologue([&](agent::ReactionContext& ctx) {
      for (int i = 0; i < 6; ++i) {
        p4::EntrySpec spec;
        spec.key = {{static_cast<std::uint64_t>(i), ~std::uint64_t{0}}};
        spec.action = "fwd";
        spec.action_args = {1};
        ids.push_back(ctx.add_entry("mt", spec));
      }
    });
    std::uint64_t round = 0;
    ag.set_native_reaction("rx", [&](agent::ReactionContext& ctx) {
      ++round;
      // ids[0] is deleted in round 3; mod only the surviving tail.
      ctx.mod_entry("mt", ids[1 + round % (ids.size() - 1)], "fwd", {round});
      if (round == 3) ctx.del_entry("mt", ids[0]);
      if (round == 5) {
        p4::EntrySpec spec;
        spec.key = {{99, ~std::uint64_t{0}}};
        spec.action = "fwd";
        spec.action_args = {9};
        ids.push_back(ctx.add_entry("mt", spec));
      }
    });
    ag.run_dialogue(8);
    ag.drain_pending_pushes();
    // Canonical table text (default action + entries sorted by handle).
    std::string out;
    s.table("mt").write_snapshot(out);
    return out;
  };

  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace mantis::driver
