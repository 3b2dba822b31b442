// P4R frontend tests: lexer, parser, and semantic analysis.
#include <gtest/gtest.h>

#include "p4r/lexer.hpp"
#include "p4r/parser.hpp"
#include "p4r/sema.hpp"

namespace mantis::p4r {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenKindsAndPositions) {
  const auto toks = lex("table foo {\n  size : 0x1F;\n}");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_TRUE(toks[0].is_ident("table"));
  EXPECT_TRUE(toks[1].is_ident("foo"));
  EXPECT_TRUE(toks[2].is_sym("{"));
  EXPECT_TRUE(toks[3].is_ident("size"));
  EXPECT_TRUE(toks[4].is_sym(":"));
  EXPECT_EQ(toks[5].kind, TokKind::kNumber);
  EXPECT_EQ(toks[5].value, 0x1fu);
  EXPECT_EQ(toks[3].line, 2u);
  EXPECT_EQ(toks[3].col, 3u);
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
}

TEST(Lexer, CommentsSkipped) {
  const auto toks = lex("a // line comment\n/* block\ncomment */ b");
  ASSERT_EQ(toks.size(), 3u);  // a, b, EOF
  EXPECT_TRUE(toks[0].is_ident("a"));
  EXPECT_TRUE(toks[1].is_ident("b"));
  EXPECT_EQ(toks[1].line, 3u);
}

TEST(Lexer, MultiCharOperatorsLongestMatch) {
  const auto toks = lex("a <<= b << c <= d < e ${f}");
  EXPECT_TRUE(toks[1].is_sym("<<="));
  EXPECT_TRUE(toks[3].is_sym("<<"));
  EXPECT_TRUE(toks[5].is_sym("<="));
  EXPECT_TRUE(toks[7].is_sym("<"));
  EXPECT_TRUE(toks[9].is_sym("${"));
  EXPECT_TRUE(toks[10].is_ident("f"));
  EXPECT_TRUE(toks[11].is_sym("}"));
}

TEST(Lexer, StringLiterals) {
  const auto toks = lex("t.addEntry(\"my_action\", 1)");
  bool found = false;
  for (const auto& tok : toks) {
    if (tok.kind == TokKind::kString) {
      EXPECT_EQ(tok.text, "my_action");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(lex("\"unterminated"), UserError);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(lex("@"), UserError);
  EXPECT_THROW(lex("/* never closed"), UserError);
  EXPECT_THROW(lex("123abc"), UserError);
  EXPECT_THROW(lex("0x"), UserError);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(Parser, FullDeclarationSweep) {
  const auto ast = parse(R"(
header_type h_t { fields { a : 32; b : 8; } }
header h_t h;
metadata h_t m;
register r { width : 16; instance_count : 4; }
counter c { type : packets; instance_count : 2; }
field_list fl { h.a; ${mf}; }
field_list_calculation hc {
  input { fl; }
  algorithm : crc16;
  output_width : 12;
}
malleable value mv { width : 16; init : 3; }
malleable field mf { width : 32; init : h.a; alts { h.a, m.a } }
action act(x) { modify_field(h.b, x); }
malleable table mt {
  reads { ${mf} : exact; h.b : ternary; }
  actions { act; _drop; }
  size : 32;
}
table pt { reads { h.a : lpm; } actions { act; } default_action : act(7); }
control ingress { apply(mt); if (h.b == 1) { apply(pt); } else { apply(pt); } }
control egress { }
reaction rx(ing h.a, egr h.b, reg r[0:3], ${mv}) {
  int x = ${mv} + 1;
  ${mv} = x;
}
)");
  EXPECT_EQ(ast.header_types.size(), 1u);
  EXPECT_EQ(ast.instances.size(), 2u);
  EXPECT_EQ(ast.registers.size(), 1u);
  EXPECT_EQ(ast.counters.size(), 1u);
  ASSERT_EQ(ast.field_lists.size(), 1u);
  EXPECT_TRUE(ast.field_lists[0].entries[1].malleable);
  EXPECT_EQ(ast.hash_calcs[0].algorithm, "crc16");
  EXPECT_EQ(ast.mbl_values[0].init, 3u);
  ASSERT_EQ(ast.mbl_fields.size(), 1u);
  EXPECT_EQ(ast.mbl_fields[0].alts,
            (std::vector<std::string>{"h.a", "m.a"}));
  ASSERT_EQ(ast.tables.size(), 2u);
  EXPECT_TRUE(ast.tables[0].malleable);
  EXPECT_FALSE(ast.tables[1].malleable);
  EXPECT_EQ(ast.tables[1].default_action, "act");
  EXPECT_EQ(ast.tables[1].default_args, (std::vector<std::uint64_t>{7}));
  ASSERT_EQ(ast.reactions.size(), 1u);
  ASSERT_EQ(ast.reactions[0].args.size(), 4u);
  EXPECT_EQ(ast.reactions[0].args[2].kind, AstReactionArg::Kind::kRegister);
  EXPECT_EQ(ast.reactions[0].args[2].lo, 0u);
  EXPECT_EQ(ast.reactions[0].args[2].hi, 3u);
  EXPECT_EQ(ast.reactions[0].args[3].kind, AstReactionArg::Kind::kMalleable);
  EXPECT_FALSE(ast.reactions[0].body.empty());
  // Control flow captured if/else.
  ASSERT_EQ(ast.ingress.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<AstIf>(ast.ingress[1].node));
}

TEST(Parser, ReactionBodyCapturesNestedBracesAndMblRefs) {
  const auto ast = parse(R"(
reaction r() {
  for (int i = 0; i < 4; ++i) {
    if (i > 2) { ${v} = i; }
  }
}
)");
  ASSERT_EQ(ast.reactions.size(), 1u);
  int braces = 0;
  for (const auto& tok : ast.reactions[0].body) {
    if (tok.is_sym("{")) ++braces;
  }
  EXPECT_EQ(braces, 2);  // for-body and if-body, not the ${v} close
}

TEST(Parser, ParserDeclIgnored) {
  const auto ast = parse(R"(
parser start { extract(h); return ingress; }
header_type h_t { fields { a : 8; } }
header h_t h;
)");
  EXPECT_EQ(ast.header_types.size(), 1u);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse("table { }"), UserError);           // missing name
  EXPECT_THROW(parse("malleable widget x { }"), UserError);
  EXPECT_THROW(parse("control sideways { }"), UserError);
  EXPECT_THROW(parse("reaction r(bogus h.a) { }"), UserError);
  EXPECT_THROW(parse("action a() { foo(1) }"), UserError);  // missing ';'
  EXPECT_THROW(parse("reaction r() { "), UserError);        // unterminated
}

// ---------------------------------------------------------------------------
// Sema
// ---------------------------------------------------------------------------

const char* kGoodSrc = R"(
header_type h_t { fields { a : 32; b : 32; c : 8; } }
header h_t h;
register r { width : 32; instance_count : 8; }
malleable value knob { width : 8; init : 2; }
malleable field sel { width : 32; init : h.a; alts { h.a, h.b } }
action act() { add(h.c, h.c, ${knob}); modify_field(${sel}, 5); }
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt {
  reads { ${sel} : exact; }
  actions { act; }
  size : 16;
}
table ft { reads { h.c : exact; } actions { fwd; } }
control ingress { apply(mt); apply(ft); }
control egress { }
reaction rx(ing h.a, reg r[2:5]) { ${knob} = 1; }
)";

TEST(Sema, LowersGoodProgram) {
  const auto out = frontend(kGoodSrc);
  EXPECT_EQ(out.values.size(), 1u);
  ASSERT_EQ(out.fields.size(), 1u);
  EXPECT_EQ(out.fields[0].alts.size(), 2u);
  EXPECT_EQ(out.fields[0].init_alt, 0u);
  EXPECT_TRUE(out.is_malleable_table("mt"));
  EXPECT_FALSE(out.is_malleable_table("ft"));
  ASSERT_EQ(out.reactions.size(), 1u);
  const auto& rx = out.reactions[0];
  ASSERT_EQ(rx.params.size(), 2u);
  EXPECT_EQ(rx.params[0].kind, ReactionParam::Kind::kField);
  EXPECT_EQ(rx.params[0].c_name, "h_a");
  EXPECT_EQ(rx.params[1].kind, ReactionParam::Kind::kRegister);
  EXPECT_EQ(rx.params[1].lo, 2u);
  EXPECT_EQ(rx.params[1].hi, 5u);
  // Malleable refs preserved as kMbl operands for the compiler.
  const auto* act = out.prog.find_action("act");
  ASSERT_NE(act, nullptr);
  EXPECT_EQ(act->body[0].args[2].kind, p4::OperandKind::kMbl);
  EXPECT_EQ(act->body[1].args[0].mbl, "sel");
  // Table read kept as malleable.
  EXPECT_TRUE(out.prog.find_table("mt")->reads[0].is_malleable());
}

struct SemaErrorCase {
  const char* name;
  const char* source;
};

// Printed by name: gtest's default dumps the struct's bytes, pointers
// included, which would put load addresses into the discovered test names.
void PrintTo(const SemaErrorCase& c, std::ostream* os) { *os << c.name; }

class SemaErrors : public ::testing::TestWithParam<SemaErrorCase> {};

TEST_P(SemaErrors, Rejected) {
  EXPECT_THROW(frontend(GetParam().source), UserError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SemaErrors,
    ::testing::Values(
        SemaErrorCase{"unknown_field_in_action",
                      "action a() { modify_field(h.x, 1); }"},
        SemaErrorCase{"unknown_malleable",
                      "action a() { modify_field(standard_metadata.egress_spec, "
                      "${ghost}); }"},
        SemaErrorCase{"init_not_in_alts",
                      "header_type h_t { fields { a : 32; b : 32; c : 32; } }\n"
                      "header h_t h;\n"
                      "malleable field f { width : 32; init : h.c; alts { h.a, "
                      "h.b } }"},
        SemaErrorCase{"alt_width_mismatch",
                      "header_type h_t { fields { a : 32; b : 16; } }\n"
                      "header h_t h;\n"
                      "malleable field f { width : 32; init : h.a; alts { h.a, "
                      "h.b } }"},
        SemaErrorCase{"value_as_write_destination",
                      "header_type h_t { fields { a : 32; } }\nheader h_t h;\n"
                      "malleable value v { width : 8; init : 0; }\n"
                      "action a() { modify_field(${v}, h.a); }"},
        SemaErrorCase{"duplicate_malleable",
                      "malleable value v { width : 8; init : 0; }\n"
                      "malleable value v { width : 8; init : 0; }"},
        SemaErrorCase{"reaction_bad_register_range",
                      "register r { width : 32; instance_count : 4; }\n"
                      "reaction rx(reg r[0:4]) { }"},
        SemaErrorCase{"reaction_unknown_field", "reaction rx(ing h.a) { }"},
        SemaErrorCase{"table_unknown_action",
                      "header_type h_t { fields { a : 32; } }\nheader h_t h;\n"
                      "table t { reads { h.a : exact; } actions { nope; } }"},
        SemaErrorCase{"apply_unknown_table", "control ingress { apply(t); }"},
        SemaErrorCase{"field_width_zero",
                      "header_type h_t { fields { a : 0; } }\nheader h_t h;"},
        SemaErrorCase{"duplicate_table",
                      "header_type h_t { fields { a : 32; } }\nheader h_t h;\n"
                      "action x() { }\n"
                      "table t { reads { h.a : exact; } actions { x; } }\n"
                      "table t { reads { h.a : exact; } actions { x; } }"}),
    [](const ::testing::TestParamInfo<SemaErrorCase>& info) {
      return info.param.name;
    });

TEST(Sema, ReactionNameCollisionRejected) {
  // ing h.a and a register named h_a would collide in the C namespace.
  EXPECT_THROW(frontend(R"(
header_type h_t { fields { a : 32; } }
header h_t h;
register h_a { width : 32; instance_count : 2; }
reaction rx(ing h.a, reg h_a[0:1]) { }
)"),
               UserError);
}

}  // namespace
}  // namespace mantis::p4r
