// Tests for the JSON program emitter, the util/json reader, and trace file
// I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "compile/compiler.hpp"
#include "p4/json.hpp"
#include "util/json.hpp"
#include "workload/trace_io.hpp"

namespace mantis {
namespace {

TEST(JsonEmit, CompiledProgramSerializes) {
  const auto art = compile::compile_source(R"P4R(
header_type h_t { fields { a : 32; b : 16; } }
header h_t h;
malleable value knob { width : 8; init : 3; }
action bump(v) { add(h.b, v, ${knob}); }
table t { reads { h.a : lpm; } actions { bump; } default_action : bump(1); size : 32; }
control ingress { apply(t); if (h.b > 5) { apply(t2); } }
table t2 { reads { h.b : exact; } actions { bump; } size : 4; }
control egress { }
reaction rx(ing h.a) { ${knob} = 1; }
)P4R");
  const auto json = p4::emit_json(art.prog);

  // The util reader parses the document back to the values written.
  const JsonValue root = parse_json(json);
  EXPECT_EQ(root.str_or("target"), "mantis-rmt-sim");
  const JsonValue* tables = root.find("tables");
  ASSERT_NE(tables, nullptr);
  const JsonValue* t = nullptr;
  const JsonValue* t2 = nullptr;
  for (const auto& tbl : tables->items) {
    if (tbl.str_or("name") == "t") t = &tbl;
    if (tbl.str_or("name") == "t2") t2 = &tbl;
  }
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t->num_or("max_size"), 32);
  EXPECT_EQ(t2->num_or("max_size"), 4);
  ASSERT_EQ(t->find("key")->items.size(), 1u);
  EXPECT_EQ(t->find("key")->items[0].str_or("match_type"), "lpm");
  EXPECT_EQ(t->find("key")->items[0].str_or("target"), "h.a");
  const JsonValue* dflt = t->find("default_action");
  ASSERT_NE(dflt, nullptr);
  EXPECT_EQ(dflt->str_or("name"), "bump");
  ASSERT_EQ(dflt->find("args")->items.size(), 1u);
  EXPECT_EQ(dflt->find("args")->items[0].number, 1);

  bool saw_meta_type = false;
  for (const auto& ht : root.find("header_types")->items) {
    saw_meta_type |= ht.str_or("name") == "p4r_meta_t_";
  }
  EXPECT_TRUE(saw_meta_type);
  bool saw_meas_register = false;
  for (const auto& reg : root.find("registers")->items) {
    saw_meas_register |= reg.str_or("name") == "p4r_meas_rx_ing_0_";
  }
  EXPECT_TRUE(saw_meas_register);

  // ingress applies t, then if (h.b > 5) applies t2.
  const JsonValue& ingress = root.find("pipelines")->items.at(0);
  EXPECT_EQ(ingress.str_or("name"), "ingress");
  const JsonValue* apply_t = nullptr;
  const JsonValue* branch = nullptr;
  for (const auto& node : ingress.find("control")->items) {
    if (node.str_or("table") == "t") apply_t = &node;
    if (node.str_or("op") == "if") branch = &node;
  }
  ASSERT_NE(apply_t, nullptr);
  EXPECT_EQ(apply_t->str_or("op"), "apply");
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->str_or("relation"), ">");
  EXPECT_EQ(branch->find("left")->str_or("value"), "h.b");
  EXPECT_EQ(branch->find("right")->num_or("value"), 5);
  ASSERT_EQ(branch->find("then")->items.size(), 1u);
  EXPECT_EQ(branch->find("then")->items[0].str_or("table"), "t2");
  EXPECT_TRUE(branch->find("else")->items.empty());
}

TEST(JsonEmit, EscapesSpecialCharacters) {
  p4::Program prog;
  prog.name = "with\"quote\\and\nnewline";
  const auto json = p4::emit_json(prog);
  EXPECT_NE(json.find("with\\\"quote\\\\and\\nnewline"), std::string::npos);
  EXPECT_EQ(parse_json(json).str_or("program"), prog.name);
}

// Expects parse_json to reject `text` with a UserError naming a byte offset.
void expect_rejected(const std::string& text) {
  try {
    parse_json(text);
    ADD_FAILURE() << "accepted: " << text.substr(0, 40);
  } catch (const UserError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte "), std::string::npos)
        << e.what();
  }
}

TEST(ParseJson, ReadsBackWhatTheWriterWrites) {
  JsonWriter w;
  w.begin_object();
  w.field("s", "q\"b\\n\n\t\x01").field("neg", std::int64_t{-7});
  w.field("big", std::uint64_t{1} << 60).field("x", 0.1);
  w.key("a").begin_array(JsonWriter::Layout::kInline);
  w.value(true);
  w.value(false);
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  const JsonValue v = parse_json(w.take());
  EXPECT_EQ(v.str_or("s"), "q\"b\\n\n\t\x01");
  EXPECT_EQ(v.num_or("neg"), -7);
  EXPECT_EQ(v.num_or("big"), static_cast<double>(std::uint64_t{1} << 60));
  EXPECT_EQ(v.num_or("x"), 0.1);
  const auto& a = v.find("a")->items;
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(a[0].boolean);
  EXPECT_EQ(a[1].type, JsonValue::Type::kBool);
  EXPECT_EQ(a[2].type, JsonValue::Type::kObject);
  EXPECT_EQ(parse_json("[1e2, -0.5E-1, 0, \"\\u0041\"]").items[3].str, "A");
}

TEST(ParseJson, RejectsNestingDeeperThanTheLimit) {
  // Far past the limit: unbounded recursion would overflow the stack.
  expect_rejected(std::string(2'000'000, '['));
  const std::string deepest = std::string(kJsonMaxDepth, '[') +
                              std::string(kJsonMaxDepth, ']');
  EXPECT_EQ(parse_json(deepest).items.size(), 1u);
  expect_rejected("[" + deepest + "]");
}

TEST(ParseJson, RejectsNumbersOutsideTheGrammar) {
  for (const char* text :
       {"inf", "-inf", "nan", "0x10", "+7", "01", "1.", ".5", "1e", "-",
        "1e999", "-1e999", "[1,]", "1 2"}) {
    expect_rejected(text);
  }
}

TEST(ParseJson, RejectsUnicodeEscapesWithoutFourHexDigits) {
  for (const char* text : {"\"\\uZZZZ\"", "\"\\u12\"", "\"\\u 123\"",
                           "\"\\u+123\"", "\"\\u12"}) {
    expect_rejected(text);
  }
  expect_rejected("\"raw\ncontrol\"");
}

TEST(TraceIo, RoundTripsExactly) {
  workload::TraceConfig cfg;
  cfg.num_flows = 50;
  cfg.num_packets = 500;
  cfg.duration_s = 0.01;
  const auto trace = workload::generate_trace(cfg);

  std::ostringstream out;
  workload::write_trace(trace, out);
  std::istringstream in(out.str());
  const auto loaded = workload::read_trace(in);

  ASSERT_EQ(loaded.packets.size(), trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    EXPECT_EQ(loaded.packets[i].t, trace.packets[i].t);
    EXPECT_EQ(loaded.packets[i].src_ip, trace.packets[i].src_ip);
    EXPECT_EQ(loaded.packets[i].dst_ip, trace.packets[i].dst_ip);
    EXPECT_EQ(loaded.packets[i].src_port, trace.packets[i].src_port);
    EXPECT_EQ(loaded.packets[i].dst_port, trace.packets[i].dst_port);
    EXPECT_EQ(loaded.packets[i].proto, trace.packets[i].proto);
    EXPECT_EQ(loaded.packets[i].bytes, trace.packets[i].bytes);
  }
  EXPECT_EQ(loaded.bytes_per_src, trace.bytes_per_src);
  EXPECT_EQ(loaded.packets_per_src, trace.packets_per_src);
}

TEST(TraceIo, FileRoundTrip) {
  workload::TraceConfig cfg;
  cfg.num_flows = 10;
  cfg.num_packets = 100;
  cfg.duration_s = 0.001;
  const auto trace = workload::generate_trace(cfg);
  const std::string path = "/tmp/mantis_trace_test.txt";
  workload::save_trace(trace, path);
  const auto loaded = workload::load_trace(path);
  EXPECT_EQ(loaded.packets.size(), 100u);
  EXPECT_EQ(loaded.bytes_per_src, trace.bytes_per_src);
}

TEST(TraceIo, Errors) {
  {
    std::istringstream in("1 a b 1 2 3 4\n");  // no magic
    EXPECT_THROW(workload::read_trace(in), UserError);
  }
  {
    std::istringstream in("#mantis-trace v1\nnot numbers here\n");
    EXPECT_THROW(workload::read_trace(in), UserError);
  }
  {
    std::istringstream in("#mantis-trace v1\n100 a b 1 2 6 64\n50 a b 1 2 6 64\n");
    EXPECT_THROW(workload::read_trace(in), UserError);  // non-monotone
  }
  EXPECT_THROW(workload::load_trace("/nonexistent/dir/trace.txt"), UserError);
}

}  // namespace
}  // namespace mantis
