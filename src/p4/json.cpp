#include "p4/json.hpp"

#include "util/json.hpp"

namespace mantis::p4 {

namespace {

/// Opens the array that is member `key`'s value. Program JSON keeps such an
/// array's first element on the bracket's line.
void begin_array(JsonWriter& w, std::string_view key) {
  w.key(key).begin_array(JsonWriter::Layout::kHanging);
}

void emit_operand(JsonWriter& w, const Program& prog, const ActionDecl& act,
                  const Operand& o) {
  w.begin_object();
  switch (o.kind) {
    case OperandKind::kField:
      w.field("type", "field").field("value", prog.fields.full_name(o.field));
      break;
    case OperandKind::kConst:
      w.field("type", "hexstr").field("value", o.value);
      break;
    case OperandKind::kParam:
      w.field("type", "runtime_data").field("value", act.params[o.param].name);
      w.field("index", o.param);
      break;
    case OperandKind::kMbl:
      w.field("type", "malleable").field("value", o.mbl);
      break;
  }
  w.end_object();
}

void emit_control(JsonWriter& w, const Program& prog,
                  const std::vector<ControlNode>& nodes) {
  for (const auto& node : nodes) {
    w.begin_object();
    if (const auto* apply = std::get_if<ApplyNode>(&node.node)) {
      w.field("op", "apply").field("table", apply->table);
    } else {
      const auto& ifn = std::get<IfNode>(node.node);
      w.field("op", "if");
      auto cond_side = [&](const char* key, const Operand& o) {
        w.key(key).begin_object();
        if (o.kind == OperandKind::kField) {
          w.field("type", "field");
          w.field("value", prog.fields.full_name(o.field));
        } else {
          w.field("type", "hexstr").field("value", o.value);
        }
        w.end_object();
      };
      cond_side("left", ifn.cond.lhs);
      w.field("relation", rel_op_name(ifn.cond.op));
      cond_side("right", ifn.cond.rhs);
      begin_array(w, "then");
      emit_control(w, prog, ifn.then_branch);
      w.end_array();
      begin_array(w, "else");
      emit_control(w, prog, ifn.else_branch);
      w.end_array();
    }
    w.end_object();
  }
}

}  // namespace

std::string emit_json(const Program& prog) {
  JsonWriter w;
  w.begin_object();
  w.field("program", prog.name).field("target", "mantis-rmt-sim");

  begin_array(w, "header_types");
  for (const auto& ht : prog.header_types) {
    w.begin_object();
    w.field("name", ht.name);
    begin_array(w, "fields");
    for (const auto& f : ht.fields) {
      w.begin_array();
      w.value(f.name);
      w.value(f.width);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  begin_array(w, "headers");
  for (const auto& inst : prog.instances) {
    w.begin_object();
    w.field("name", inst.name).field("header_type", inst.type_name);
    w.field("metadata", inst.is_metadata);
    if (!inst.initializers.empty()) {
      begin_array(w, "initializers");
      for (const auto& [fname, value] : inst.initializers) {
        w.begin_array();
        w.value(fname);
        w.value(value);
        w.end_array();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  begin_array(w, "registers");
  for (const auto& reg : prog.registers) {
    w.begin_object();
    w.field("name", reg.name).field("bitwidth", reg.width);
    w.field("size", reg.instance_count);
    w.end_object();
  }
  w.end_array();

  begin_array(w, "counters");
  for (const auto& ctr : prog.counters) {
    w.begin_object();
    w.field("name", ctr.name).field("size", ctr.instance_count);
    w.end_object();
  }
  w.end_array();

  begin_array(w, "field_lists");
  for (const auto& fl : prog.field_lists) {
    w.begin_object();
    w.field("name", fl.name);
    begin_array(w, "elements");
    for (const auto& entry : fl.fields) {
      w.value(entry.is_malleable() ? "${" + entry.mbl + "}"
                                   : prog.fields.full_name(entry.field));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  begin_array(w, "calculations");
  for (const auto& hc : prog.hash_calcs) {
    w.begin_object();
    w.field("name", hc.name).field("input", hc.field_list);
    w.field("algo", hc.algorithm).field("output_width", hc.output_width);
    w.end_object();
  }
  w.end_array();

  begin_array(w, "actions");
  for (const auto& act : prog.actions) {
    w.begin_object();
    w.field("name", act.name);
    begin_array(w, "runtime_data");
    for (const auto& p : act.params) {
      w.begin_object();
      w.field("name", p.name).field("bitwidth", p.width);
      w.end_object();
    }
    w.end_array();
    begin_array(w, "primitives");
    for (const auto& ins : act.body) {
      w.begin_object();
      w.field("op", prim_op_name(ins.op));
      if (!ins.object.empty()) w.field("object", ins.object);
      begin_array(w, "parameters");
      for (const auto& arg : ins.args) emit_operand(w, prog, act, arg);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  begin_array(w, "tables");
  for (const auto& tbl : prog.tables) {
    w.begin_object();
    w.field("name", tbl.name).field("max_size", tbl.size);
    begin_array(w, "key");
    for (const auto& read : tbl.reads) {
      w.begin_object();
      w.field("match_type", match_kind_name(read.kind));
      w.field("target", read.is_malleable() ? "${" + read.mbl + "}"
                                            : prog.fields.full_name(read.field));
      if (read.premask != ~std::uint64_t{0}) w.field("mask", read.premask);
      w.end_object();
    }
    w.end_array();
    begin_array(w, "actions");
    for (const auto& a : tbl.actions) w.value(a);
    w.end_array();
    if (!tbl.default_action.empty()) {
      w.key("default_action").begin_object();
      w.field("name", tbl.default_action);
      begin_array(w, "args");
      for (const auto v : tbl.default_action_args) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  begin_array(w, "pipelines");
  for (const auto* block : {&prog.ingress, &prog.egress}) {
    w.begin_object();
    w.field("name", block == &prog.ingress ? "ingress" : "egress");
    begin_array(w, "control");
    emit_control(w, prog, block->nodes);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  // Program JSON opens with a blank line (tests/golden/figure1.json).
  return std::string("\n").append(w.take()).append("\n");
}

}  // namespace mantis::p4
