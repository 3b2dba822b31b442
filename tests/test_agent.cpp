// Agent tests: entry expansion, dialogue mechanics (mv/vv flips), scalar
// commits, three-phase updates, hot swap, register cache.
#include <gtest/gtest.h>

#include <set>

#include "agent/cost_equation.hpp"
#include "agent/handles.hpp"
#include "helpers.hpp"

namespace mantis::test {
namespace {

constexpr std::uint64_t kFull = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// expand_user_entry
// ---------------------------------------------------------------------------

struct ExpandFixture {
  compile::TableInfo info;
  agent::AltCounts alts;

  ExpandFixture() {
    // A table with reads {h.x exact, ${f} exact} + selector(f) + selector(g)
    // + vv, where action "w" is specialized over g and "plain" is not.
    info.name = "t";
    info.malleable = true;
    info.original_read_count = 2;
    info.col_of_original = {0, -1};
    compile::MblReadInfo mri;
    mri.mbl = "f";
    mri.original_index = 1;
    mri.alt_cols = {1, 2};
    mri.selector_col = 3;
    info.mbl_reads.push_back(mri);
    info.selector_cols = {{"f", 3}, {"g", 4}};
    info.vv_col = 5;
    info.total_cols = 6;

    compile::ActionInfo plain;
    plain.original = "plain";
    plain.specialized = {"plain"};
    info.actions.push_back(plain);

    compile::ActionInfo w;
    w.original = "w";
    w.dims = {"g"};
    w.dim_alts = {3};
    w.specialized = {"w__0_", "w__1_", "w__2_"};
    info.actions.push_back(w);

    info.expansion_product = 6;
    alts = {{"f", 2}, {"g", 3}};
  }
};

TEST(ExpandUserEntry, MatchOnlyExpansion) {
  ExpandFixture fx;
  p4::EntrySpec user;
  user.key = {{10, kFull}, {99, kFull}};
  user.action = "plain";
  user.priority = 4;
  const auto specs = agent::expand_user_entry(fx.info, fx.alts, user, 1);
  ASSERT_EQ(specs.size(), 2u);  // one per alternative of f
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& s = specs[i];
    EXPECT_EQ(s.action, "plain");
    EXPECT_EQ(s.priority, 4);
    EXPECT_EQ(s.key.size(), 6u);
    EXPECT_EQ(s.key[0].value, 10u);             // plain column
    EXPECT_EQ(s.key[1 + i].value, 99u);         // chosen alt carries the key
    EXPECT_EQ(s.key[2 - i].mask, 0u);           // other alt wildcarded
    EXPECT_EQ(s.key[3].value, i);               // f selector
    EXPECT_EQ(s.key[4].mask, 0u);               // g selector wildcarded
    EXPECT_EQ(s.key[5].value, 1u);              // vv
    EXPECT_NE(s.key[5].mask, 0u);
  }
}

TEST(ExpandUserEntry, SharedMatchAndActionDims) {
  ExpandFixture fx;
  p4::EntrySpec user;
  user.key = {{10, kFull}, {99, kFull}};
  user.action = "w";
  user.action_args = {7};
  const auto specs = agent::expand_user_entry(fx.info, fx.alts, user, 0);
  // f (match) x g (action) = 2 * 3 combos.
  ASSERT_EQ(specs.size(), 6u);
  std::set<std::string> actions;
  for (const auto& s : specs) {
    actions.insert(s.action);
    EXPECT_EQ(s.action_args, (std::vector<std::uint64_t>{7}));
    EXPECT_NE(s.key[4].mask, 0u);  // g selector concrete for a g-using action
  }
  EXPECT_EQ(actions, (std::set<std::string>{"w__0_", "w__1_", "w__2_"}));
}

TEST(ExpandUserEntry, Validation) {
  ExpandFixture fx;
  p4::EntrySpec user;
  user.key = {{10, kFull}};
  user.action = "plain";
  EXPECT_THROW(agent::expand_user_entry(fx.info, fx.alts, user, 0),
               PreconditionError);  // key arity
  user.key = {{10, kFull}, {99, kFull}};
  user.action = "ghost";
  EXPECT_THROW(agent::expand_user_entry(fx.info, fx.alts, user, 0), UserError);
}

// ---------------------------------------------------------------------------
// Dialogue mechanics
// ---------------------------------------------------------------------------

TEST(AgentTest, VersionBitsFlipPerIteration) {
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  EXPECT_EQ(stack.agent->vv(), 0);
  EXPECT_EQ(stack.agent->mv(), 0);
  stack.agent->dialogue_iteration();
  EXPECT_EQ(stack.agent->vv(), 1);
  EXPECT_EQ(stack.agent->mv(), 1);
  stack.agent->dialogue_iteration();
  EXPECT_EQ(stack.agent->vv(), 0);
  EXPECT_EQ(stack.agent->mv(), 0);
  EXPECT_EQ(stack.agent->iterations(), 2u);
  // The data plane's master init entry tracks the committed bits.
  const auto& master = stack.sw->table("p4r_init_");
  auto probe = stack.sw->factory().make();
  auto r = master.lookup(probe);
  const auto& bind = stack.artifacts.bindings;
  EXPECT_EQ(r.args[bind.vv_param], 0u);
  EXPECT_EQ(r.args[bind.mv_param], 0u);
}

TEST(AgentTest, CleanIterationSkipsCommitWhenConfigured) {
  agent::AgentOptions opts;
  opts.commit_every_iteration = false;
  Stack stack(figure1_style_source(), {}, opts);
  stack.agent->run_prologue();
  stack.agent->dialogue_iteration();
  // The reaction wrote ${value_var} = 0 (no register data), which differs
  // from init 1 -> dirty -> still commits. Reset to the same value and the
  // next iteration is clean: vv must NOT flip.
  const int vv_after = stack.agent->vv();
  stack.agent->dialogue_iteration();
  EXPECT_EQ(stack.agent->vv(), vv_after);
}

TEST(AgentTest, ScalarSetOutsideReactionCommitsImmediately) {
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  stack.agent->set_scalar("value_var", 9);
  EXPECT_EQ(stack.agent->scalar("value_var"), 9u);
  const auto& master = stack.sw->table("p4r_init_");
  auto probe = stack.sw->factory().make();
  const auto& bind = stack.artifacts.bindings;
  const auto slot = bind.scalars.at("value_var");
  EXPECT_EQ(master.lookup(probe).args[slot.param], 9u);
}

TEST(AgentTest, ScalarValidation) {
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  EXPECT_THROW(stack.agent->set_scalar("ghost", 1), UserError);
  EXPECT_THROW(stack.agent->set_scalar("value_var", 1 << 16), UserError);
  // field_var selector has 2 alts; index 2 is invalid.
  EXPECT_THROW(stack.agent->set_scalar("field_var", 2), UserError);
  EXPECT_NO_THROW(stack.agent->set_scalar("field_var", 1));
}

TEST(AgentTest, ShiftFieldChangesMatchedAlternative) {
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  auto ctx = stack.agent->management_context();
  // Entry matching ${field_var} == 5 with my_action.
  p4::EntrySpec spec;
  spec.key = {{5, kFull}};
  spec.action = "my_action";
  ctx.add_entry("table_var", spec);

  auto send = [&](std::uint64_t foo, std::uint64_t bar) {
    auto pkt = stack.sw->factory().make();
    stack.sw->factory().set(pkt, "hdr.foo", foo);
    stack.sw->factory().set(pkt, "hdr.bar", bar);
    stack.sw->factory().set(pkt, "hdr.baz", 0);
    std::uint64_t baz_out = kFull;
    stack.sw->set_on_transmit([&](const sim::Packet& out, int, Time) {
      baz_out = stack.sw->factory().get(out, "hdr.baz");
    });
    stack.sw->inject(std::move(pkt), 0);
    stack.loop.run();
    return baz_out;
  };

  // init: field_var -> hdr.foo. foo==5 matches (baz += value_var == 1).
  EXPECT_EQ(send(5, 0), 1u);
  EXPECT_EQ(send(0, 5), 0u);  // bar==5 does not match yet

  stack.agent->set_scalar("field_var", 1);  // shift to hdr.bar
  EXPECT_EQ(send(0, 5), 1u);
  EXPECT_EQ(send(5, 0), 0u);
}

TEST(AgentTest, HotSwapBetweenNativeAndInterpreted) {
  Stack stack(figure1_style_source());
  int native_calls = 0;
  stack.agent->run_prologue();
  stack.agent->dialogue_iteration();  // interpreted
  stack.agent->set_native_reaction("my_reaction",
                                   [&](agent::ReactionContext&) { ++native_calls; });
  stack.agent->dialogue_iteration();
  EXPECT_EQ(native_calls, 1);
  stack.agent->swap_to_interpreted("my_reaction", /*reinit_statics=*/true);
  stack.agent->dialogue_iteration();
  EXPECT_EQ(native_calls, 1);
  EXPECT_THROW(stack.agent->set_native_reaction("nope", [](auto&) {}), UserError);
}

TEST(AgentTest, IterationLatencyInTensOfMicroseconds) {
  // The headline claim: dialogue iterations at 10s-of-us granularity.
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  stack.agent->run_dialogue(50);
  const auto& lat = stack.agent->iteration_latencies();
  EXPECT_LT(lat.median(), 100.0 * kMicrosecond);
  EXPECT_GT(lat.median(), 1.0 * kMicrosecond);
}

TEST(AgentTest, PacingSleepTradesLatencyForUtilization) {
  agent::AgentOptions busy_opts;
  Stack busy(figure1_style_source(), {}, busy_opts);
  busy.agent->run_prologue();
  const Time t0 = busy.loop.now();
  busy.agent->run_dialogue(20);
  const double busy_util = static_cast<double>(busy.agent->busy_time()) /
                           static_cast<double>(busy.loop.now() - t0);
  EXPECT_GT(busy_util, 0.95);

  agent::AgentOptions paced_opts;
  paced_opts.pacing_sleep = 100 * kMicrosecond;
  Stack paced(figure1_style_source(), {}, paced_opts);
  paced.agent->run_prologue();
  const Time t1 = paced.loop.now();
  paced.agent->run_dialogue(20);
  const double paced_util = static_cast<double>(paced.agent->busy_time()) /
                            static_cast<double>(paced.loop.now() - t1);
  EXPECT_LT(paced_util, 0.4);
}

TEST(AgentTest, CostEquationPredictsIterationLatency) {
  Stack stack(figure1_style_source());
  stack.agent->set_native_reaction("my_reaction", [](agent::ReactionContext&) {},
                                   /*cost=*/1000);
  stack.agent->run_prologue();
  stack.agent->run_dialogue(10);
  const auto measured = stack.agent->iteration_latencies().median();

  const auto* rinfo = stack.artifacts.bindings.find_reaction("my_reaction");
  ASSERT_NE(rinfo, nullptr);
  const auto predicted = agent::predict_iteration(
      stack.drv->costs(), *rinfo, /*reaction_compute=*/1000,
      /*table_entry_mods=*/0,
      stack.artifacts.bindings.init_tables.size());
  EXPECT_NEAR(measured, static_cast<double>(predicted.total()),
              0.25 * measured);
}

TEST(AgentTest, ManagementTableOpsOnMalleableTableImmediate) {
  Stack stack(figure1_style_source());
  stack.agent->run_prologue();
  auto ctx = stack.agent->management_context();
  p4::EntrySpec spec;
  spec.key = {{7, kFull}};
  spec.action = "my_action";
  const auto id = ctx.add_entry("table_var", spec);
  // Both vv copies are installed (2 alts x 2 vv = 4 concrete entries).
  EXPECT_EQ(stack.sw->table("table_var").entry_count(), 4u);
  ctx.mod_entry("table_var", id, "_drop", {});
  ctx.del_entry("table_var", id);
  EXPECT_EQ(stack.sw->table("table_var").entry_count(), 0u);
  EXPECT_EQ(ctx.entry_count("table_var"), 0u);
}

}  // namespace
}  // namespace mantis::test
