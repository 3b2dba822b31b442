// Unit tests for the P4 IR: field catalog, program validation, control-flow
// helpers, and the P4-14 emitter.
#include <gtest/gtest.h>

#include "p4/emit.hpp"
#include "p4/ir.hpp"

namespace mantis::p4 {
namespace {

Program tiny_program() {
  Program prog;
  add_standard_metadata(prog);
  prog.add_metadata_instance("m_t", "m", {{"a", 32}, {"b", 16}});

  ActionDecl act;
  act.name = "bump";
  act.params.push_back(ActionParam{"amount", 16});
  Instruction ins;
  ins.op = PrimOp::kAddToField;
  ins.args = {Operand::of_field(prog.fields.require("m.a")), Operand::of_param(0)};
  act.body.push_back(ins);
  prog.actions.push_back(act);

  TableDecl tbl;
  tbl.name = "t";
  tbl.reads.push_back(MatchSpec{prog.fields.require("m.b"), MatchKind::kExact, ""});
  tbl.actions = {"bump"};
  tbl.size = 16;
  prog.tables.push_back(tbl);

  // Built in place, as in p4r/sema.cpp, to keep GCC 12's
  // -Wmaybe-uninitialized quiet about the variant's IfNode alternative.
  prog.ingress.nodes.emplace_back().node = ApplyNode{"t"};
  return prog;
}

TEST(FieldCatalog, AddFindWidths) {
  FieldCatalog cat;
  const FieldId a = cat.add("h", "x", 32);
  const FieldId b = cat.add("h", "y", 9);
  EXPECT_NE(a, b);
  EXPECT_EQ(cat.find("h.x"), a);
  EXPECT_EQ(cat.find("h.z"), kInvalidField);
  EXPECT_EQ(cat.width(b), 9);
  EXPECT_EQ(cat.full_name(a), "h.x");
  EXPECT_EQ(cat.instance(a), "h");
  EXPECT_EQ(cat.field(a), "x");
  EXPECT_THROW(cat.add("h", "x", 8), PreconditionError);  // duplicate
  EXPECT_THROW(cat.add("h", "w", 0), PreconditionError);  // zero width
  EXPECT_THROW(cat.add("h", "w", 65), PreconditionError);
  EXPECT_THROW(cat.require("h.z"), UserError);
}

TEST(ProgramTest, ValidateAcceptsTiny) {
  auto prog = tiny_program();
  EXPECT_NO_THROW(prog.validate());
}

TEST(ProgramTest, ValidateRejectsUnknownAction) {
  auto prog = tiny_program();
  prog.tables[0].actions.push_back("missing");
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, ValidateRejectsWrongArity) {
  auto prog = tiny_program();
  prog.actions[0].body[0].args.push_back(Operand::of_const(1));
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, ValidateRejectsUnresolvedMalleable) {
  auto prog = tiny_program();
  prog.actions[0].body[0].args[1] = Operand::of_mbl("ghost");
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, ValidateRejectsMalleableMatchKey) {
  auto prog = tiny_program();
  prog.tables[0].reads[0].mbl = "ghost";
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, ValidateRejectsConstDestination) {
  auto prog = tiny_program();
  prog.actions[0].body[0].args[0] = Operand::of_const(1);
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, ValidateRejectsDefaultArgMismatch) {
  auto prog = tiny_program();
  prog.tables[0].default_action = "bump";  // bump takes one arg, none given
  EXPECT_THROW(prog.validate(), InvariantError);
}

TEST(ProgramTest, TablesInAndGress) {
  auto prog = tiny_program();
  const auto ing = prog.tables_in(prog.ingress);
  ASSERT_EQ(ing.size(), 1u);
  EXPECT_EQ(ing[0], "t");
  EXPECT_TRUE(prog.applied_in("t", prog.ingress));
  EXPECT_FALSE(prog.applied_in("t", prog.egress));
  EXPECT_EQ(prog.gress_of_table("t"), Gress::kIngress);
  EXPECT_THROW(prog.gress_of_table("nope"), PreconditionError);
}

TEST(ProgramTest, TablesInSeesNestedIfBranches) {
  auto prog = tiny_program();
  TableDecl t2 = prog.tables[0];
  t2.name = "t2";
  prog.tables.push_back(t2);
  IfNode ifn;
  ifn.cond.lhs = Operand::of_field(prog.fields.require("m.a"));
  ifn.cond.op = RelOp::kGt;
  ifn.cond.rhs = Operand::of_const(3);
  ifn.then_branch.emplace_back().node = ApplyNode{"t2"};
  prog.ingress.nodes.push_back(ControlNode{std::move(ifn)});
  const auto ing = prog.tables_in(prog.ingress);
  EXPECT_EQ(ing.size(), 2u);
  EXPECT_NO_THROW(prog.validate());
}

TEST(ProgramTest, AppendMetadataField) {
  auto prog = tiny_program();
  const FieldId f = prog.append_metadata_field("m", "extra", 4, 9);
  EXPECT_EQ(prog.fields.width(f), 4);
  const auto* inst = prog.find_instance("m");
  ASSERT_NE(inst, nullptr);
  ASSERT_FALSE(inst->initializers.empty());
  EXPECT_EQ(inst->initializers.back().first, "extra");
  EXPECT_EQ(inst->initializers.back().second, 9u);
  const auto* type = prog.find_header_type("m_t");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->fields.back().name, "extra");
}

TEST(ProgramTest, HeaderTotalWidth) {
  HeaderTypeDecl ht;
  ht.fields = {{"a", 32}, {"b", 16}, {"c", 1}};
  EXPECT_EQ(ht.total_width(), 49);
}

TEST(Emit, ActionAndTableShapes) {
  auto prog = tiny_program();
  const auto text = emit_p4(prog);
  EXPECT_NE(text.find("action bump(amount) {"), std::string::npos);
  EXPECT_NE(text.find("add_to_field(m.a, amount);"), std::string::npos);
  EXPECT_NE(text.find("table t {"), std::string::npos);
  EXPECT_NE(text.find("m.b : exact;"), std::string::npos);
  EXPECT_NE(text.find("control ingress {"), std::string::npos);
  EXPECT_NE(text.find("apply(t);"), std::string::npos);
}

TEST(Emit, RegisterPrimitiveOrderFollowsP4_14) {
  Program prog;
  add_standard_metadata(prog);
  prog.add_metadata_instance("m_t", "m", {{"a", 32}});
  prog.registers.push_back(RegisterDecl{"r", 32, 4});
  ActionDecl act;
  act.name = "rw";
  Instruction rd;
  rd.op = PrimOp::kRegisterRead;
  rd.object = "r";
  rd.args = {Operand::of_field(prog.fields.require("m.a")), Operand::of_const(2)};
  act.body.push_back(rd);
  Instruction wr;
  wr.op = PrimOp::kRegisterWrite;
  wr.object = "r";
  wr.args = {Operand::of_const(2), Operand::of_field(prog.fields.require("m.a"))};
  act.body.push_back(wr);
  prog.actions.push_back(act);
  const auto text = emit_action(prog, prog.actions.back());
  EXPECT_NE(text.find("register_read(m.a, r, 2);"), std::string::npos);
  EXPECT_NE(text.find("register_write(r, 2, m.a);"), std::string::npos);
}

TEST(Emit, MalleablePlaceholdersVisibleInPreCompileDumps) {
  auto prog = tiny_program();
  prog.actions[0].body[0].args[1] = Operand::of_mbl("knob");
  const auto text = emit_action(prog, prog.actions[0]);
  EXPECT_NE(text.find("${knob}"), std::string::npos);
}

TEST(StandardMetadata, Idempotent) {
  Program prog;
  add_standard_metadata(prog);
  const auto n = prog.fields.size();
  add_standard_metadata(prog);
  EXPECT_EQ(prog.fields.size(), n);
  EXPECT_NE(prog.fields.find(intrinsics::kIngressPort), kInvalidField);
  EXPECT_EQ(prog.fields.width(prog.fields.require(intrinsics::kEnqQdepth)), 19);
}

}  // namespace
}  // namespace mantis::p4
