// Unit tests for the simulator core: event loop, table match engines,
// register file, and action execution.
#include <gtest/gtest.h>

#include "p4/ir.hpp"
#include "sim/action_exec.hpp"
#include "sim/event_loop.hpp"
#include "sim/register_file.hpp"
#include "sim/table_state.hpp"

namespace mantis::sim {
namespace {

constexpr std::uint64_t kFull = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoopTest, RunsInTimeOrderWithFifoTies) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(2); });
  loop.schedule_at(5, [&] { order.push_back(1); });
  loop.schedule_at(10, [&] { order.push_back(3); });  // same time, later seq
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, CallbacksCanSchedule) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] {
    loop.schedule_in(4, [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 5);
}

TEST(EventLoopTest, RunUntilAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(100, [&] { ++fired; });
  loop.run_until(50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.now(), 50);
  loop.run_until(100);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, PastSchedulingRejected) {
  EventLoop loop;
  loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(5, [] {}), PreconditionError);
  EXPECT_THROW(loop.run_until(5), PreconditionError);
}

// ---------------------------------------------------------------------------
// Fixtures for tables/actions
// ---------------------------------------------------------------------------

struct SimFixture {
  p4::Program prog;

  SimFixture() {
    p4::add_standard_metadata(prog);
    prog.add_metadata_instance("h_t", "h", {{"a", 16}, {"b", 32}, {"c", 8}});
    p4::ActionDecl noop;
    noop.name = "_no_op_";
    prog.actions.push_back(noop);
    p4::ActionDecl act;
    act.name = "set_c";
    act.params.push_back(p4::ActionParam{"v", 8});
    p4::Instruction ins;
    ins.op = p4::PrimOp::kModifyField;
    ins.args = {p4::Operand::of_field(prog.fields.require("h.c")),
                p4::Operand::of_param(0)};
    act.body.push_back(ins);
    prog.actions.push_back(act);
  }

  p4::TableDecl make_table(std::vector<p4::MatchSpec> reads, std::size_t size = 8) {
    p4::TableDecl tbl;
    tbl.name = "t";
    tbl.reads = std::move(reads);
    tbl.actions = {"set_c"};
    tbl.size = size;
    return tbl;
  }

  Packet packet(std::uint64_t a, std::uint64_t b) {
    Packet pkt(prog.fields.size());
    pkt.set(prog.fields.require("h.a"), a, 16);
    pkt.set(prog.fields.require("h.b"), b, 32);
    return pkt;
  }
};

p4::EntrySpec entry(std::vector<p4::MatchValue> key, std::uint64_t v,
                    std::int32_t prio = 0) {
  p4::EntrySpec spec;
  spec.key = std::move(key);
  spec.action = "set_c";
  spec.action_args = {v};
  spec.priority = prio;
  return spec;
}

// ---------------------------------------------------------------------------
// TableState
// ---------------------------------------------------------------------------

TEST(TableStateTest, ExactHitAndMiss) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  tbl.add_entry(entry({{7, kFull}}, 42));

  auto hit = tbl.lookup(fx.packet(7, 0));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(fx.prog.actions[hit.action].name, "set_c");
  EXPECT_EQ(hit.args[0], 42u);

  auto miss = tbl.lookup(fx.packet(8, 0));
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(fx.prog.actions[miss.action].name, "_no_op_");
}

TEST(TableStateTest, ExactDuplicateKeyRejected) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  tbl.add_entry(entry({{7, kFull}}, 1));
  EXPECT_THROW(tbl.add_entry(entry({{7, kFull}}, 2)), UserError);
}

TEST(TableStateTest, ExactRequiresFullMask) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  EXPECT_THROW(tbl.add_entry(entry({{7, 0xff}}, 1)), UserError);
}

TEST(TableStateTest, TernaryPriorityWins) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kTernary, ""}});
  TableState tbl(fx.prog, decl);
  tbl.add_entry(entry({{0, 0}}, 1, /*prio=*/0));        // match-all
  tbl.add_entry(entry({{7, kFull}}, 2, /*prio=*/10));   // specific, higher prio
  auto r7 = tbl.lookup(fx.packet(7, 0));
  EXPECT_EQ(r7.args[0], 2u);
  auto r8 = tbl.lookup(fx.packet(8, 0));
  EXPECT_EQ(r8.args[0], 1u);
}

TEST(TableStateTest, TernaryTieBreaksByInsertOrder) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kTernary, ""}});
  TableState tbl(fx.prog, decl);
  tbl.add_entry(entry({{0, 0}}, 1, 5));
  tbl.add_entry(entry({{0, 0}}, 2, 5));
  EXPECT_EQ(tbl.lookup(fx.packet(0, 0)).args[0], 1u);
}

TEST(TableStateTest, LpmLongestPrefixWins) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.b"), p4::MatchKind::kLpm, ""}});
  TableState tbl(fx.prog, decl);
  // /8 and /16 prefixes over the 32-bit field.
  const std::uint64_t m8 = 0xff000000, m16 = 0xffff0000;
  tbl.add_entry(entry({{0x0a000000, m8}}, 8));
  tbl.add_entry(entry({{0x0a0b0000, m16}}, 16));
  EXPECT_EQ(tbl.lookup(fx.packet(0, 0x0a0b0c0d)).args[0], 16u);
  EXPECT_EQ(tbl.lookup(fx.packet(0, 0x0a990c0d)).args[0], 8u);
  EXPECT_FALSE(tbl.lookup(fx.packet(0, 0x0b000000)).hit);
}

TEST(TableStateTest, ModifyAndDelete) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  const auto h = tbl.add_entry(entry({{7, kFull}}, 1));
  tbl.modify_entry(h, "set_c", {9});
  EXPECT_EQ(tbl.lookup(fx.packet(7, 0)).args[0], 9u);
  tbl.delete_entry(h);
  EXPECT_FALSE(tbl.lookup(fx.packet(7, 0)).hit);
  EXPECT_THROW(tbl.delete_entry(h), UserError);
  EXPECT_THROW(tbl.modify_entry(h, "set_c", {1}), UserError);
}

TEST(TableStateTest, CapacityEnforced) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}},
                            /*size=*/2);
  TableState tbl(fx.prog, decl);
  tbl.add_entry(entry({{1, kFull}}, 1));
  tbl.add_entry(entry({{2, kFull}}, 1));
  EXPECT_THROW(tbl.add_entry(entry({{3, kFull}}, 1)), UserError);
  EXPECT_EQ(tbl.entry_count(), 2u);
  EXPECT_EQ(tbl.capacity(), 2u);
}

TEST(TableStateTest, FindEntryByKeySpec) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kTernary, ""}});
  TableState tbl(fx.prog, decl);
  const auto h = tbl.add_entry(entry({{7, 0xff}}, 1));
  EXPECT_EQ(tbl.find_entry({{7, 0xff}}), h);
  EXPECT_EQ(tbl.find_entry({{7, kFull}}), std::nullopt);
}

TEST(TableStateTest, UnboundActionRejected) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  auto bad = entry({{7, kFull}}, 1);
  bad.action = "_no_op_";  // exists in program, not bound to table
  EXPECT_THROW(tbl.add_entry(bad), UserError);
  EXPECT_THROW(tbl.set_default("_no_op_", {}), UserError);
}

TEST(TableStateTest, SetDefaultChecksArgCount) {
  SimFixture fx;
  auto decl = fx.make_table({{fx.prog.fields.require("h.a"), p4::MatchKind::kExact, ""}});
  TableState tbl(fx.prog, decl);
  EXPECT_THROW(tbl.set_default("set_c", {}), UserError);
  EXPECT_THROW(tbl.set_default("set_c", {1, 2}), UserError);
  // A rejected default leaves the old one in place.
  auto miss = tbl.lookup(fx.packet(0, 0));
  EXPECT_EQ(fx.prog.actions[miss.action].name, "_no_op_");
  EXPECT_TRUE(miss.args.empty());
  tbl.set_default("set_c", {3});
  EXPECT_EQ(tbl.lookup(fx.packet(0, 0)).args[0], 3u);
}

TEST(TableStateTest, DefaultActionOnDefaultOnlyTable) {
  SimFixture fx;
  auto decl = fx.make_table({});
  decl.default_action = "set_c";
  decl.default_action_args = {5};
  TableState tbl(fx.prog, decl);
  auto r = tbl.lookup(fx.packet(0, 0));
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(fx.prog.actions[r.action].name, "set_c");
  EXPECT_EQ(r.args[0], 5u);
  tbl.set_default("set_c", {6});
  EXPECT_EQ(tbl.lookup(fx.packet(0, 0)).args[0], 6u);
}

// ---------------------------------------------------------------------------
// RegisterFile
// ---------------------------------------------------------------------------

TEST(RegisterFileTest, ReadWriteRangeAndBounds) {
  p4::Program prog;
  prog.registers.push_back(p4::RegisterDecl{"r", 16, 8});
  RegisterFile regs(prog);
  regs.write("r", 3, 0x1ffff);  // truncated to 16 bits
  EXPECT_EQ(regs.read("r", 3), 0xffffu);
  const auto range = regs.read_range("r", 2, 4);
  EXPECT_EQ(range, (std::vector<std::uint64_t>{0, 0xffff, 0}));
  EXPECT_EQ(regs.instance_count("r"), 8u);
  EXPECT_EQ(regs.width("r"), 16);
  EXPECT_THROW(regs.read("r", 8), UserError);
  EXPECT_THROW(regs.write("nope", 0, 1), UserError);
  EXPECT_THROW(regs.read_range("r", 5, 8), UserError);
}

TEST(RegisterFileTest, Counters) {
  p4::Program prog;
  prog.counters.push_back(p4::CounterDecl{"c", 4});
  RegisterFile regs(prog);
  regs.count("c", 1);
  regs.count("c", 1);
  EXPECT_EQ(regs.counter_value("c", 1), 2u);
  EXPECT_EQ(regs.counter_value("c", 0), 0u);
  EXPECT_THROW(regs.count("c", 4), UserError);
}

// ---------------------------------------------------------------------------
// ActionExecutor & hashing
// ---------------------------------------------------------------------------

TEST(ActionExecTest, ArithmeticWrapsAtFieldWidth) {
  SimFixture fx;
  RegisterFile regs(fx.prog);
  ActionExecutor exec(fx.prog, regs);

  p4::ActionDecl act;
  act.name = "wrap";
  p4::Instruction add;
  add.op = p4::PrimOp::kAdd;
  add.args = {p4::Operand::of_field(fx.prog.fields.require("h.a")),
              p4::Operand::of_const(0xffff), p4::Operand::of_const(2)};
  act.body.push_back(add);
  auto pkt = fx.packet(0, 0);
  exec.execute(act, {}, pkt);
  EXPECT_EQ(pkt.get(fx.prog.fields.require("h.a")), 1u);  // 0x10001 mod 2^16
}

TEST(ActionExecTest, RegisterReadModifyWrite) {
  SimFixture fx;
  fx.prog.registers.push_back(p4::RegisterDecl{"r", 32, 4});
  RegisterFile regs(fx.prog);
  regs.write("r", 2, 100);
  ActionExecutor exec(fx.prog, regs);

  p4::ActionDecl act;
  act.name = "rmw";
  p4::Instruction rd;
  rd.op = p4::PrimOp::kRegisterRead;
  rd.object = "r";
  rd.args = {p4::Operand::of_field(fx.prog.fields.require("h.b")),
             p4::Operand::of_const(2)};
  p4::Instruction inc;
  inc.op = p4::PrimOp::kAddToField;
  inc.args = {p4::Operand::of_field(fx.prog.fields.require("h.b")),
              p4::Operand::of_const(1)};
  p4::Instruction wr;
  wr.op = p4::PrimOp::kRegisterWrite;
  wr.object = "r";
  wr.args = {p4::Operand::of_const(2),
             p4::Operand::of_field(fx.prog.fields.require("h.b"))};
  act.body = {rd, inc, wr};
  auto pkt = fx.packet(0, 0);
  exec.execute(act, {}, pkt);
  EXPECT_EQ(regs.read("r", 2), 101u);
}

TEST(ActionExecTest, DropMarksPacket) {
  SimFixture fx;
  RegisterFile regs(fx.prog);
  ActionExecutor exec(fx.prog, regs);
  p4::ActionDecl act;
  act.name = "d";
  p4::Instruction ins;
  ins.op = p4::PrimOp::kDrop;
  act.body.push_back(ins);
  auto pkt = fx.packet(0, 0);
  exec.execute(act, {}, pkt);
  EXPECT_TRUE(pkt.dropped());
}

TEST(HashTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(HashTest, Crc16KnownVector) {
  // CRC-16/ARC("123456789") = 0xBB3D.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(data), 0xBB3D);
}

TEST(HashTest, FieldListHashDependsOnSelectedFields) {
  SimFixture fx;
  fx.prog.field_lists.push_back(p4::FieldListDecl{
      "fl", {{fx.prog.fields.require("h.a"), ""}, {fx.prog.fields.require("h.b"), ""}}});
  fx.prog.hash_calcs.push_back(p4::HashCalcDecl{"hc", "fl", "crc32", 16});
  auto p1 = fx.packet(1, 100);
  auto p2 = fx.packet(1, 101);
  auto p3 = fx.packet(1, 100);
  const auto& calc = fx.prog.hash_calcs[0];
  EXPECT_NE(compute_hash(fx.prog, calc, p1), compute_hash(fx.prog, calc, p2));
  EXPECT_EQ(compute_hash(fx.prog, calc, p1), compute_hash(fx.prog, calc, p3));
  EXPECT_LE(compute_hash(fx.prog, calc, p1), 0xffffu);  // output width respected
}

class HashAlgoParam : public ::testing::TestWithParam<const char*> {};

TEST_P(HashAlgoParam, DeterministicAndWidthBounded) {
  SimFixture fx;
  fx.prog.field_lists.push_back(
      p4::FieldListDecl{"fl", {{fx.prog.fields.require("h.b"), ""}}});
  fx.prog.hash_calcs.push_back(p4::HashCalcDecl{"hc", "fl", GetParam(), 12});
  const auto& calc = fx.prog.hash_calcs[0];
  auto pkt = fx.packet(0, 0xdeadbeef);
  const auto h1 = compute_hash(fx.prog, calc, pkt);
  const auto h2 = compute_hash(fx.prog, calc, pkt);
  EXPECT_EQ(h1, h2);
  EXPECT_LT(h1, 1u << 12);
}

INSTANTIATE_TEST_SUITE_P(Algos, HashAlgoParam,
                         ::testing::Values("crc32", "crc16", "identity",
                                           "xor_fold"));

}  // namespace
}  // namespace mantis::sim
