// Advanced agent scenarios: split init tables under a tight action budget,
// multiple reactions per program, egress-side measurement through the
// traffic manager, and error handling.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace mantis::test {
namespace {

constexpr std::uint64_t kFull = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// Overflow init tables (paper §5.1.1 "splitting the init table")
// ---------------------------------------------------------------------------

const char* kManyScalarsSrc = R"P4R(
header_type h_t { fields { x : 32; } }
header h_t h;
malleable value k1 { width : 32; init : 1; }
malleable value k2 { width : 32; init : 2; }
malleable value k3 { width : 32; init : 3; }
malleable value k4 { width : 32; init : 4; }
action bump() {
  add(h.x, ${k1}, ${k2});
  add(h.x, h.x, ${k3});
  add(h.x, h.x, ${k4});
}
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
table t { actions { bump; } default_action : bump; size : 1; }
table o { actions { fwd; } default_action : fwd(1); size : 1; }
control ingress { apply(t); apply(o); }
control egress { }
reaction rx() {
  ${k1} = ${k1} + 10;
  ${k4} = ${k4} + 100;
}
)P4R";

struct OverflowFixture {
  compile::Options copts;
  Stack stack;

  OverflowFixture()
      : copts([] {
          compile::Options o;
          o.rmt.max_action_bits = 70;  // forces >= 2 init tables
          return o;
        }()),
        stack(kManyScalarsSrc, {}, {}, {}, copts) {}
};

TEST(OverflowInit, SplitHappenedAndPrologueInstallsEntries) {
  OverflowFixture fx;
  ASSERT_GE(fx.stack.artifacts.bindings.init_tables.size(), 2u);
  fx.stack.agent->run_prologue();
  for (std::size_t k = 1; k < fx.stack.artifacts.bindings.init_tables.size(); ++k) {
    const auto& name = fx.stack.artifacts.bindings.init_tables[k].table;
    EXPECT_EQ(fx.stack.sw->table(name).entry_count(), 2u) << name;
  }
}

TEST(OverflowInit, ScalarCommitsSpanInitTablesAtomically) {
  OverflowFixture fx;
  fx.stack.agent->run_prologue();

  // Stream packets and check every packet's x == k1+k2+k3+k4 for a single
  // consistent scalar generation (all-old or all-new), even though the
  // scalars live in different init tables updated by separate driver ops.
  std::vector<std::uint64_t> seen;
  fx.stack.sw->set_on_transmit([&](const sim::Packet& pkt, int, Time) {
    seen.push_back(fx.stack.sw->factory().get(pkt, "h.x"));
  });
  const Time base = fx.stack.loop.now();
  for (int i = 0; i < 200; ++i) {
    fx.stack.loop.schedule_at(base + i * 500, [&fx] {
      fx.stack.sw->inject(fx.stack.sw->factory().make(), 0);
    });
  }
  fx.stack.agent->run_dialogue(4);
  fx.stack.loop.run();

  // Generations: iteration j has k1 = 1+10j, k4 = 4+100j -> sum = 10+110j.
  ASSERT_GT(seen.size(), 100u);
  for (const auto x : seen) {
    EXPECT_EQ((x - 10) % 110, 0u) << "torn scalar generation observed: " << x;
  }
  // Multiple generations were actually observed.
  std::set<std::uint64_t> distinct(seen.begin(), seen.end());
  EXPECT_GE(distinct.size(), 3u);
}

TEST(OverflowInit, ManagementScalarWriteAlsoLandsInOverflowTable) {
  OverflowFixture fx;
  fx.stack.agent->run_prologue();
  fx.stack.agent->set_scalar("k4", 77);
  std::uint64_t got = 0;
  fx.stack.sw->set_on_transmit([&](const sim::Packet& pkt, int, Time) {
    got = fx.stack.sw->factory().get(pkt, "h.x");
  });
  fx.stack.sw->inject(fx.stack.sw->factory().make(), 0);
  fx.stack.loop.run();
  EXPECT_EQ(got, 1u + 2 + 3 + 77);
}

// One iteration whose reaction changes a malleable-table entry and a scalar
// that lives in an overflow init table. Sync prepare and mirror each pay one
// batch for the table ops and a separate one for the init rows; async push
// stages both into one prepare and one mirror batch. The pinned update time
// and op counts hold those batch boundaries.
const char* kOverflowTableSrc = R"P4R(
header_type h_t { fields { x : 32; k : 32; } }
header h_t h;
malleable value k1 { width : 32; init : 1; }
malleable value k2 { width : 32; init : 2; }
malleable value k3 { width : 32; init : 3; }
malleable value k4 { width : 32; init : 4; }
action bump() {
  add(h.x, ${k1}, ${k2});
  add(h.x, h.x, ${k3});
  add(h.x, h.x, ${k4});
}
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
table t { actions { bump; } default_action : bump; size : 1; }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 16; }
control ingress { apply(t); apply(mt); }
control egress { }
reaction rx() { }
)P4R";

struct PushCost {
  Duration update = 0;
  std::uint64_t sync_ops = 0;     ///< driver.sync_ops during the iteration
  std::uint64_t channel_ops = 0;  ///< driver.channel.ops during the iteration
};

PushCost push_table_and_overflow_scalar(bool async_push) {
  compile::Options copts;
  copts.rmt.max_action_bits = 70;  // forces >= 2 init tables
  agent::AgentOptions aopts;
  aopts.async_push = async_push;
  Stack stack(kOverflowTableSrc, {}, aopts, {}, copts);
  const auto& inits = stack.artifacts.bindings.init_tables;
  if (inits.size() < 2 || inits.back().params.empty()) {
    ADD_FAILURE() << "program did not split its init table";
    return {};
  }
  const std::string overflow_scalar = inits.back().params.front();
  stack.agent->run_prologue();
  p4::EntrySpec spec;
  spec.key = {{7, kFull}};
  spec.action = "fwd";
  spec.action_args = {1};
  const auto id = stack.agent->management_context().add_entry("mt", spec);
  stack.agent->set_native_reaction("rx", [&](agent::ReactionContext& ctx) {
    ctx.mod_entry("mt", id, "fwd", {2});
    ctx.set(overflow_scalar, ctx.get(overflow_scalar) + 1);
  });

  auto& metrics = stack.loop.telemetry().metrics();
  const auto sync0 = metrics.counter("driver.sync_ops").value();
  const auto chan0 = metrics.counter("driver.channel.ops").value();
  stack.agent->dialogue_iteration();
  return PushCost{stack.agent->last_breakdown().update,
                  metrics.counter("driver.sync_ops").value() - sync0,
                  metrics.counter("driver.channel.ops").value() - chan0};
}

TEST(OverflowInit, TableAndScalarPushKeepsBatchBoundaries) {
  // Sync: the mv flip, prepare (table batch, then init batch), commit and
  // mirror (table batch, then init batch) are 6 sync ops; the update phase
  // is 2.6 + 2.6 + 2.5 + 2.6 + 2.6 us. One merged batch per step would
  // cost 4.0 + 2.5 + 4.0 us in 4 ops.
  const auto sync = push_table_and_overflow_scalar(false);
  EXPECT_EQ(sync.update, 12900);
  EXPECT_EQ(sync.sync_ops, 6u);
  EXPECT_EQ(sync.channel_ops, 6u);
  // Async: the mv flip is the one sync op; prepare, commit and mirror are
  // one batch each.
  const auto async = push_table_and_overflow_scalar(true);
  EXPECT_EQ(async.update, 3508);
  EXPECT_EQ(async.sync_ops, 1u);
  EXPECT_EQ(async.channel_ops, 4u);
}

// ---------------------------------------------------------------------------
// Multiple reactions, egress measurement
// ---------------------------------------------------------------------------

const char* kTwoReactionsSrc = R"P4R(
header_type h_t { fields { a : 16; b : 16; } }
header h_t h;
malleable value u { width : 16; init : 0; }
malleable value v { width : 16; init : 0; }
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
table o { actions { fwd; } default_action : fwd(2); size : 1; }
control ingress { apply(o); }
control egress { }
reaction r1(ing h.a) { ${u} = h_a; }
reaction r2(egr h.b, egr standard_metadata.egress_port) {
  ${v} = h_b + standard_metadata_egress_port;
}
)P4R";

TEST(MultiReaction, BothRunPerIterationWithOwnParams) {
  Stack stack(kTwoReactionsSrc);
  stack.agent->run_prologue();
  auto pkt = stack.sw->factory().make();
  stack.sw->factory().set(pkt, "h.a", 33);
  stack.sw->factory().set(pkt, "h.b", 44);
  stack.sw->inject(std::move(pkt), 0);
  stack.loop.run();  // packet reaches egress; measurement registers written
  stack.agent->dialogue_iteration();
  EXPECT_EQ(stack.agent->scalar("u"), 33u);
  EXPECT_EQ(stack.agent->scalar("v"), 44u + 2u);  // b + egress port
}

TEST(MultiReaction, EgressParamsOnlyUpdateWhenPacketsReachEgress) {
  Stack stack(kTwoReactionsSrc);
  stack.agent->run_prologue();
  // Down the egress port: packets die in the TM, so egress measurement
  // registers never see them.
  stack.sw->set_port_up(2, false);
  auto pkt = stack.sw->factory().make();
  stack.sw->factory().set(pkt, "h.a", 5);
  stack.sw->factory().set(pkt, "h.b", 6);
  stack.sw->inject(std::move(pkt), 0);
  stack.loop.run();
  stack.agent->dialogue_iteration();
  EXPECT_EQ(stack.agent->scalar("u"), 5u);  // ingress side still measured
  EXPECT_EQ(stack.agent->scalar("v"), 0u);  // egress side never written
}

// ---------------------------------------------------------------------------
// Error handling
// ---------------------------------------------------------------------------

TEST(AgentErrors, DialogueBeforePrologueRejected) {
  Stack stack(kTwoReactionsSrc);
  EXPECT_THROW(stack.agent->dialogue_iteration(), PreconditionError);
}

TEST(AgentErrors, DoublePrologueRejected) {
  Stack stack(kTwoReactionsSrc);
  stack.agent->run_prologue();
  EXPECT_THROW(stack.agent->run_prologue(), PreconditionError);
}

TEST(AgentErrors, ReactionExceptionPropagatesWithContext) {
  Stack stack(kTwoReactionsSrc);
  stack.agent->set_native_reaction("r1", [](agent::ReactionContext& ctx) {
    ctx.arg("no_such_param");
  });
  stack.agent->run_prologue();
  EXPECT_THROW(stack.agent->dialogue_iteration(), UserError);
}

TEST(AgentErrors, UnknownTableInReactionRejected) {
  Stack stack(kTwoReactionsSrc);
  stack.agent->run_prologue();
  auto ctx = stack.agent->management_context();
  p4::EntrySpec spec;
  spec.action = "fwd";
  EXPECT_THROW(ctx.add_entry("ghost", spec), UserError);
  EXPECT_THROW(ctx.entry_count("ghost"), UserError);
  EXPECT_THROW(ctx.del_entry("o", 999), UserError);
}

TEST(AgentErrors, InterpretedReactionErrorsCarryLocation) {
  // Division by zero inside a .p4r reaction surfaces as UserError with
  // line:col of the reaction body.
  Stack stack(R"P4R(
header_type h_t { fields { a : 16; } }
header h_t h;
control ingress { }
control egress { }
reaction bad() {
  int x = 1 / 0;
}
)P4R");
  stack.agent->run_prologue();
  try {
    stack.agent->dialogue_iteration();
    FAIL() << "expected UserError";
  } catch (const UserError& e) {
    EXPECT_NE(std::string(e.what()).find("division by zero"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("7:"), std::string::npos);  // line 7
  }
}

// ---------------------------------------------------------------------------
// Capacity: expanded entries respect the transformed table budget
// ---------------------------------------------------------------------------

TEST(AgentCapacity, MalleableTableFullSurfacesCleanly) {
  Stack stack(R"P4R(
header_type h_t { fields { k : 16; } }
header h_t h;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 2; }
control ingress { apply(mt); }
control egress { }
reaction rx() { }
)P4R");
  stack.agent->run_prologue();
  auto ctx = stack.agent->management_context();
  for (std::uint64_t i = 0; i < 2; ++i) {
    p4::EntrySpec spec;
    spec.key = {{i, kFull}};
    spec.action = "fwd";
    spec.action_args = {1};
    ctx.add_entry("mt", spec);  // 2 user entries * 2 vv copies == size 4
  }
  p4::EntrySpec extra;
  extra.key = {{9, kFull}};
  extra.action = "fwd";
  extra.action_args = {1};
  EXPECT_THROW(ctx.add_entry("mt", extra), UserError);
}

}  // namespace
}  // namespace mantis::test
