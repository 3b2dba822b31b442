// Tests for the embedded-C reaction language: parsing, evaluation semantics,
// statics, width wrapping, table calls, builtins, and error handling.
#include <gtest/gtest.h>

#include "p4r/creact/cparser.hpp"
#include "p4r/creact/interp.hpp"
#include "p4r/lexer.hpp"
#include "util/check.hpp"

namespace mantis::p4r::creact {
namespace {

/// Minimal env recording malleable/table interactions.
struct FakeEnv : ReactionEnv {
  std::map<std::string, CValue> mbls;
  std::vector<std::string> calls;
  CValue time_us = 0;
  std::vector<CValue> logged;

  CValue mbl_get(const std::string& name) override { return mbls[name]; }
  void mbl_set(const std::string& name, CValue v) override { mbls[name] = v; }
  CValue table_call(const std::string& table, const std::string& method,
                    const std::vector<TableCallArg>& args) override {
    std::string s = table + "." + method + "(";
    for (const auto& a : args) {
      s += a.is_string ? a.str : std::to_string(a.num);
      s += ",";
    }
    s += ")";
    calls.push_back(s);
    return 77;
  }
  CValue now_us() override { return time_us; }
  void log_value(CValue v) override { logged.push_back(v); }
};

CBody parse_src(const std::string& src) {
  auto toks = lex(src);
  toks.pop_back();  // EOF
  return parse_body(toks);
}

/// Runs `src` with `out` as a writable malleable and returns its final value.
CValue run_for(const std::string& src, const PolledParams& params = {}) {
  const auto body = parse_src(src);
  Interp interp(body);
  FakeEnv env;
  interp.run(params, env);
  return env.mbls["out"];
}

TEST(Creact, ArithmeticAndPrecedence) {
  EXPECT_EQ(run_for("${out} = 2 + 3 * 4;"), 14);
  EXPECT_EQ(run_for("${out} = (2 + 3) * 4;"), 20);
  EXPECT_EQ(run_for("${out} = 7 / 2 + 7 % 2;"), 4);
  EXPECT_EQ(run_for("${out} = 1 << 4 | 3;"), 19);
  EXPECT_EQ(run_for("${out} = ~0 & 0xff;"), 0xff);
  EXPECT_EQ(run_for("${out} = -5 + 3;"), -2);
  EXPECT_EQ(run_for("${out} = !0 + !7;"), 1);
  EXPECT_EQ(run_for("${out} = 10 ^ 3;"), 9);
}

TEST(Creact, ComparisonAndLogic) {
  EXPECT_EQ(run_for("${out} = 3 < 4 && 4 <= 4 && 5 > 4 && 5 >= 5;"), 1);
  EXPECT_EQ(run_for("${out} = 3 == 3 || 1 == 2;"), 1);
  EXPECT_EQ(run_for("${out} = 3 != 3;"), 0);
  // Short-circuit: the rhs division by zero must not run.
  EXPECT_EQ(run_for("${out} = 0 && 1 / 0;"), 0);
  EXPECT_EQ(run_for("${out} = 1 || 1 / 0;"), 1);
}

TEST(Creact, TernaryAndAssignmentOps) {
  EXPECT_EQ(run_for("int x = 5; ${out} = x > 3 ? 10 : 20;"), 10);
  EXPECT_EQ(run_for("int x = 1; x += 4; x *= 3; x -= 5; x /= 2; ${out} = x;"), 5);
  EXPECT_EQ(run_for("int x = 0xf0; x &= 0x3c; x |= 1; x ^= 2; ${out} = x;"), 0x33);
  EXPECT_EQ(run_for("int x = 1; x <<= 4; x >>= 2; ${out} = x;"), 4);
}

TEST(Creact, IncDecPrePost) {
  EXPECT_EQ(run_for("int x = 5; ${out} = x++;"), 5);
  EXPECT_EQ(run_for("int x = 5; x++; ${out} = x;"), 6);
  EXPECT_EQ(run_for("int x = 5; ${out} = ++x;"), 6);
  EXPECT_EQ(run_for("int x = 5; ${out} = --x + x--;"), 8);
}

TEST(Creact, ControlFlow) {
  EXPECT_EQ(run_for(R"(
int total = 0;
for (int i = 1; i <= 10; ++i) {
  if (i % 2 == 0) continue;
  if (i == 9) break;
  total += i;
}
${out} = total;)"),
            1 + 3 + 5 + 7);
  EXPECT_EQ(run_for(R"(
int n = 0;
while (n * n < 50) { n++; }
${out} = n;)"),
            8);
  EXPECT_EQ(run_for("if (0) { ${out} = 1; } else { ${out} = 2; }"), 2);
  EXPECT_EQ(run_for("${out} = 1; return; ${out} = 2;"), 1);
}

TEST(Creact, ArraysAndScopes) {
  EXPECT_EQ(run_for(R"(
int a[5];
for (int i = 0; i < 5; ++i) a[i] = i * i;
int sum = 0;
for (int i = 0; i < 5; ++i) sum += a[i];
${out} = sum;)"),
            30);
  // Inner scopes shadow.
  EXPECT_EQ(run_for("int x = 1; { int x = 2; } ${out} = x;"), 1);
}

TEST(Creact, WidthWrapping) {
  EXPECT_EQ(run_for("uint8_t x = 255; x += 2; ${out} = x;"), 1);
  EXPECT_EQ(run_for("uint16_t x = 0; x -= 1; ${out} = x;"), 0xffff);
  // Signed narrow types sign-extend.
  EXPECT_EQ(run_for("int8_t x = 127; x += 1; ${out} = x;"), -128);
  EXPECT_EQ(run_for("bool b = 3; ${out} = b;"), 1);
}

TEST(Creact, StaticsPersistAcrossRuns) {
  const auto body = parse_src("static int n = 0; n += 1; ${out} = n;");
  Interp interp(body);
  FakeEnv env;
  interp.run({}, env);
  interp.run({}, env);
  interp.run({}, env);
  EXPECT_EQ(env.mbls["out"], 3);
  EXPECT_EQ(interp.static_value("n"), 3);
  interp.reset_statics();
  interp.run({}, env);
  EXPECT_EQ(env.mbls["out"], 1);
}

TEST(Creact, StaticArraysPersist) {
  const auto body = parse_src(R"(
static int hits[4];
hits[2] += 1;
${out} = hits[2];)");
  Interp interp(body);
  FakeEnv env;
  interp.run({}, env);
  interp.run({}, env);
  EXPECT_EQ(env.mbls["out"], 2);
}

TEST(Creact, ParamsScalarsAndArrays) {
  PolledParams params;
  params.scalars["qdepth"] = 42;
  PolledParams::Array arr;
  arr.lo = 3;
  arr.values = {10, 20, 30};
  params.arrays["counts"] = arr;
  EXPECT_EQ(run_for("${out} = qdepth + counts[3] + counts[5];", params), 82);
}

TEST(Creact, ParamArrayIndexRespectsDataPlaneIndices) {
  PolledParams params;
  PolledParams::Array arr;
  arr.lo = 3;
  arr.values = {10, 20, 30};
  params.arrays["counts"] = arr;
  EXPECT_THROW(run_for("${out} = counts[2];", params), UserError);
  EXPECT_THROW(run_for("${out} = counts[6];", params), UserError);
}

TEST(Creact, MalleableReadModifyWrite) {
  FakeEnv env;
  const auto body = parse_src("${v} = ${v} + 5; ${v} += 2;");
  Interp interp(body);
  env.mbls["v"] = 10;
  interp.run({}, env);
  EXPECT_EQ(env.mbls["v"], 17);
}

TEST(Creact, TableCallsAndStringArgs) {
  FakeEnv env;
  const auto body = parse_src(R"(
int h = block.addEntry("_drop", 42);
block.delEntry(42);
${out} = h;)");
  Interp interp(body);
  interp.run({}, env);
  ASSERT_EQ(env.calls.size(), 2u);
  EXPECT_EQ(env.calls[0], "block.addEntry(_drop,42,)");
  EXPECT_EQ(env.calls[1], "block.delEntry(42,)");
  EXPECT_EQ(env.mbls["out"], 77);
}

TEST(Creact, Builtins) {
  EXPECT_EQ(run_for("${out} = abs(0 - 5) + min(3, 4) + max(3, 4);"), 12);
  FakeEnv env;
  const auto body = parse_src("log(42); ${out} = now_us();");
  Interp interp(body);
  env.time_us = 99;
  interp.run({}, env);
  EXPECT_EQ(env.logged, (std::vector<CValue>{42}));
  EXPECT_EQ(env.mbls["out"], 99);
}

TEST(Creact, CastsAreAccepted) {
  EXPECT_EQ(run_for("${out} = (uint32_t)(5 + 6);"), 11);
}

TEST(Creact, CommaDeclarations) {
  EXPECT_EQ(run_for("uint16_t a = 1, b = 2, c; c = a + b; ${out} = c;"), 3);
}

TEST(Creact, RuntimeErrors) {
  EXPECT_THROW(run_for("${out} = 1 / 0;"), UserError);
  EXPECT_THROW(run_for("${out} = 1 % 0;"), UserError);
  EXPECT_THROW(run_for("${out} = nope;"), UserError);
  EXPECT_THROW(run_for("int a[3]; ${out} = a[3];"), UserError);
  EXPECT_THROW(run_for("int x; ${out} = x[0];"), UserError);
  EXPECT_THROW(run_for("while (1) { }"), UserError);  // step limit
}

TEST(Creact, ParseErrors) {
  EXPECT_THROW(parse_src("int = 4;"), UserError);
  EXPECT_THROW(parse_src("1 + 2 = 3;"), UserError);
  EXPECT_THROW(parse_src("if (1) { "), UserError);
  EXPECT_THROW(parse_src("x.y;"), UserError);  // member access outside call
  EXPECT_THROW(parse_src("int a[n];"), UserError);  // non-literal array size
}

// Property sweep: interpreter arithmetic matches host semantics for a grid
// of operand pairs across every binary operator.
struct OpCase {
  const char* op;
  std::int64_t a, b;
  std::int64_t expect;
};

// Printed as the expression: gtest's default dumps the struct's bytes,
// pointers included, which would put load addresses into the test names.
void PrintTo(const OpCase& c, std::ostream* os) {
  *os << c.a << ' ' << c.op << ' ' << c.b;
}

class CreactBinaryOps : public ::testing::TestWithParam<OpCase> {};

TEST_P(CreactBinaryOps, MatchesHost) {
  const auto& c = GetParam();
  const std::string src = "${out} = " + std::to_string(c.a) + " " + c.op + " " +
                          std::to_string(c.b) + ";";
  EXPECT_EQ(run_for(src), c.expect) << src;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CreactBinaryOps,
    ::testing::Values(OpCase{"+", 1000000007, 998244353, 1998244360},
                      OpCase{"-", 5, 9, -4}, OpCase{"*", 123456, 654321, 80779853376},
                      OpCase{"/", -7, 2, -3}, OpCase{"%", 7, 3, 1},
                      OpCase{"&", 0xf0f0, 0xff00, 0xf000},
                      OpCase{"|", 0xf0f0, 0x0f0f, 0xffff},
                      OpCase{"^", 0xff, 0x0f, 0xf0}, OpCase{"<<", 3, 4, 48},
                      OpCase{">>", 48, 4, 3}, OpCase{"<", 3, 3, 0},
                      OpCase{"<=", 3, 3, 1}, OpCase{">", 4, 3, 1},
                      OpCase{">=", 2, 3, 0}, OpCase{"==", 5, 5, 1},
                      OpCase{"!=", 5, 5, 0}));

}  // namespace
}  // namespace mantis::p4r::creact
