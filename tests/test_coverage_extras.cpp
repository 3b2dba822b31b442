// Additional focused coverage: xoshiro reference behaviour, event-loop
// advance_now contract, topology corner cases, cost-model helpers, JSON for
// all four use cases, and reaction read-your-writes semantics.
#include <gtest/gtest.h>

#include "agent/cost_equation.hpp"
#include "apps/gray_failure.hpp"
#include "apps/hash_polarization.hpp"
#include "apps/rl_dctcp.hpp"
#include "helpers.hpp"
#include "p4/json.hpp"
#include "util/json.hpp"

namespace mantis::test {
namespace {

constexpr std::uint64_t kFull = ~std::uint64_t{0};

TEST(EventLoopExtras, AdvanceNowContract) {
  sim::EventLoop loop;
  loop.advance_now(100);
  EXPECT_EQ(loop.now(), 100);
  loop.schedule_at(200, [] {});
  EXPECT_NO_THROW(loop.advance_now(150));
  // Jumping past a pending event is a caller bug.
  EXPECT_THROW(loop.advance_now(250), PreconditionError);
  loop.run();
  EXPECT_EQ(loop.now(), 200);
}

TEST(RngExtras, StreamsAreUncorrelatedAcrossSeeds) {
  // Weak independence check: agreement frequency of low bits across two
  // streams stays near 50%.
  Rng a(1), b(2);
  int agree = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    agree += static_cast<int>((a() & 1) == (b() & 1));
  }
  EXPECT_NEAR(agree / static_cast<double>(n), 0.5, 0.03);
}

TEST(TopologyExtras, CostsPreferPrimaryAgg) {
  // fat_tree_slice gives each destination a cheaper primary (cost 1.0) and
  // a pricier backup (1.1): healthy routing must pick the primary.
  const auto topo = apps::Topology::fat_tree_slice(4, 4);
  const auto routes = topo.compute_routes(std::vector<bool>(4, false));
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(routes.at(0xc0a80000u + static_cast<std::uint32_t>(d)),
              d % 4);  // primary agg of destination d
  }
}

TEST(CostModelExtras, HelperArithmetic) {
  driver::CostModel costs;
  EXPECT_EQ(costs.packed_words_read(1),
            costs.pcie_rtt + costs.reg_read_base + costs.reg_read_per_word);
  EXPECT_EQ(costs.range_read(0), costs.pcie_rtt + costs.reg_read_base);
  EXPECT_GT(costs.table_add(false), costs.table_add(true));
  EXPECT_GT(costs.table_mod(false), costs.table_mod(true));
  EXPECT_LE(costs.critical(1000), 1000);
  EXPECT_GE(costs.critical(1000), 0);
}

TEST(CostEquationExtras, BreakdownMatchesPhases) {
  Stack stack(figure1_style_source());
  stack.agent->set_native_reaction("my_reaction", [](agent::ReactionContext&) {},
                                   2000);
  stack.agent->run_prologue();
  stack.agent->dialogue_iteration();
  const auto& bd = stack.agent->last_breakdown();
  const auto* rinfo = stack.artifacts.bindings.find_reaction("my_reaction");
  const auto predicted = agent::predict_iteration(
      stack.drv->costs(), *rinfo, 2000, 0,
      stack.artifacts.bindings.init_tables.size());
  EXPECT_EQ(bd.mv_flip, predicted.mv_flip);
  EXPECT_EQ(bd.measure_and_react,
            predicted.measurement + predicted.reaction_compute);
  EXPECT_EQ(bd.update, predicted.commit);
}

class JsonAllApps : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonAllApps, SerializesBalanced) {
  const std::string name = GetParam();
  std::string src;
  if (name == "gray") src = apps::gray_failure_p4r_source();
  if (name == "hashpol") src = apps::hash_polarization_p4r_source();
  if (name == "rl") src = apps::rl_dctcp_p4r_source();
  const auto art = compile::compile_source(src);
  // The util reader parses the document back to the program's tables.
  const JsonValue root = parse_json(p4::emit_json(art.prog));
  const auto& tables = root.find("tables")->items;
  ASSERT_EQ(tables.size(), art.prog.tables.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(tables[i].str_or("name"), art.prog.tables[i].name);
    EXPECT_EQ(tables[i].num_or("max_size"),
              static_cast<double>(art.prog.tables[i].size));
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, JsonAllApps,
                         ::testing::Values("gray", "hashpol", "rl"),
                         [](const auto& info) { return std::string(info.param); });

const char* kRywSrc = R"P4R(
header_type h_t { fields { k : 16; } }
header h_t h;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 16; }
control ingress { apply(mt); }
control egress { }
reaction rx() { }
)P4R";

TEST(ReadYourWrites, BufferedOpsVisibleWithinReaction) {
  Stack stack(kRywSrc);
  stack.agent->run_prologue();
  bool checked = false;
  stack.agent->set_native_reaction("rx", [&](agent::ReactionContext& ctx) {
    if (checked) return;
    checked = true;
    p4::EntrySpec spec;
    spec.key = {{5, kFull}};
    spec.action = "fwd";
    spec.action_args = {2};
    const auto id = ctx.add_entry("mt", spec);
    // The buffered add is visible to find/count immediately...
    EXPECT_TRUE(ctx.find_entry("mt", spec.key).has_value());
    EXPECT_EQ(ctx.entry_count("mt"), 1u);
    // ...and so is a buffered delete.
    ctx.del_entry("mt", id);
    EXPECT_FALSE(ctx.find_entry("mt", spec.key).has_value());
    EXPECT_EQ(ctx.entry_count("mt"), 0u);
    // Double delete / post-delete modify are rejected at call time.
    EXPECT_THROW(ctx.del_entry("mt", id), UserError);
    EXPECT_THROW(ctx.mod_entry("mt", id, "fwd", {3}), UserError);
  });
  stack.agent->dialogue_iteration();
  EXPECT_TRUE(checked);
  EXPECT_EQ(stack.sw->table("mt").entry_count(), 0u);
}

TEST(ReadYourWrites, PendingDeleteRestoredNowhereAfterCommit) {
  Stack stack(kRywSrc);
  stack.agent->run_prologue();
  auto mgmt = stack.agent->management_context();
  p4::EntrySpec spec;
  spec.key = {{7, kFull}};
  spec.action = "fwd";
  spec.action_args = {2};
  const auto id = mgmt.add_entry("mt", spec);
  int phase = 0;
  stack.agent->set_native_reaction("rx", [&](agent::ReactionContext& ctx) {
    if (++phase == 1) ctx.del_entry("mt", id);
  });
  stack.agent->run_dialogue(3);
  EXPECT_EQ(mgmt.entry_count("mt"), 0u);
  EXPECT_EQ(stack.sw->table("mt").entry_count(), 0u);
}

}  // namespace
}  // namespace mantis::test
