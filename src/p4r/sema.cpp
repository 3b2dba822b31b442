#include "p4r/sema.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "p4r/parser.hpp"
#include "util/check.hpp"

namespace mantis::p4r {

namespace {

[[noreturn]] void fail(const AstLoc& loc, const std::string& msg) {
  throw UserError("semantic error at " + std::to_string(loc.line) + ":" +
                  std::to_string(loc.col) + ": " + msg);
}

p4::MatchKind match_kind_from(const std::string& s, const AstLoc& loc) {
  if (s == "exact") return p4::MatchKind::kExact;
  if (s == "ternary") return p4::MatchKind::kTernary;
  if (s == "lpm") return p4::MatchKind::kLpm;
  if (s == "valid") return p4::MatchKind::kValid;
  fail(loc, "unknown match kind '" + s + "'");
}

std::string c_name_of_field(const std::string& full_name) {
  std::string out = full_name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

class Analyzer {
 public:
  explicit Analyzer(const AstProgram& ast) : ast_(&ast) {}

  P4RProgram run() {
    declare_malleables();
    lower_types_and_instances();
    lower_state();
    lower_actions();
    lower_tables();
    lower_field_lists_and_hashes();
    out_.prog.ingress.nodes = lower_control(ast_->ingress);
    out_.prog.egress.nodes = lower_control(ast_->egress);
    lower_reactions();
    return std::move(out_);
  }

 private:
  const AstProgram* ast_;
  P4RProgram out_;

  bool is_mbl(const std::string& name) const {
    return out_.find_value(name) != nullptr || out_.find_field(name) != nullptr;
  }

  void declare_malleables() {
    std::unordered_set<std::string> names;
    auto claim = [&](const std::string& name, const AstLoc& loc) {
      if (!names.insert(name).second) {
        fail(loc, "duplicate malleable name '" + name + "'");
      }
    };
    for (const auto& mv : ast_->mbl_values) {
      claim(mv.name, mv.loc);
      if (mv.width == 0 || mv.width > p4::kMaxWidth) {
        fail(mv.loc, "malleable value width out of range");
      }
      out_.values.push_back(
          MalleableValue{mv.name, static_cast<p4::Width>(mv.width), mv.init});
    }
    for (const auto& mf : ast_->mbl_fields) {
      claim(mf.name, mf.loc);
      if (mf.alts.empty()) fail(mf.loc, "malleable field needs at least one alt");
      // Alts are resolved after fields are registered; see lower_types.
    }
  }

  void lower_types_and_instances() {
    auto& prog = out_.prog;
    p4::add_standard_metadata(prog);
    for (const auto& ht : ast_->header_types) {
      if (ht.name == "standard_metadata_t" &&
          prog.find_header_type(ht.name) != nullptr) {
        // Programs (e.g. our own emitted P4) may re-declare the intrinsic
        // metadata type; the built-in registration wins.
        continue;
      }
      if (prog.find_header_type(ht.name) != nullptr) {
        fail(ht.loc, "duplicate header type '" + ht.name + "'");
      }
      p4::HeaderTypeDecl decl;
      decl.name = ht.name;
      for (const auto& [fname, width] : ht.fields) {
        if (width == 0 || width > p4::kMaxWidth) {
          fail(ht.loc, "field '" + fname + "' width out of range (1..64)");
        }
        decl.fields.push_back(p4::FieldDecl{fname, static_cast<p4::Width>(width)});
      }
      prog.header_types.push_back(std::move(decl));
    }
    for (const auto& inst : ast_->instances) {
      if (inst.name == "standard_metadata" &&
          prog.find_instance(inst.name) != nullptr) {
        continue;  // built-in registration wins (see header-type case)
      }
      const auto* type = prog.find_header_type(inst.type_name);
      if (type == nullptr) {
        fail(inst.loc, "unknown header type '" + inst.type_name + "'");
      }
      if (prog.find_instance(inst.name) != nullptr) {
        fail(inst.loc, "duplicate instance '" + inst.name + "'");
      }
      p4::HeaderInstance hi;
      hi.name = inst.name;
      hi.type_name = inst.type_name;
      hi.is_metadata = inst.metadata;
      for (const auto& [fname, value] : inst.initializers) {
        const bool known =
            std::any_of(type->fields.begin(), type->fields.end(),
                        [&](const p4::FieldDecl& f) { return f.name == fname; });
        if (!known) {
          fail(inst.loc, "initializer for unknown field '" + fname + "'");
        }
        hi.initializers.emplace_back(fname, value);
      }
      prog.instances.push_back(std::move(hi));
      for (const auto& f : type->fields) {
        prog.fields.add(inst.name, f.name, f.width);
      }
    }

    // Resolve malleable field alts now that all fields exist.
    for (const auto& mf : ast_->mbl_fields) {
      MalleableField field;
      field.name = mf.name;
      field.width = static_cast<p4::Width>(mf.width);
      for (const auto& alt : mf.alts) {
        const auto id = out_.prog.fields.find(alt);
        if (id == p4::kInvalidField) {
          fail(mf.loc, "malleable field '" + mf.name + "': unknown alt '" + alt + "'");
        }
        if (out_.prog.fields.width(id) != field.width) {
          fail(mf.loc, "malleable field '" + mf.name + "': alt '" + alt +
                           "' width differs from declared width");
        }
        field.alts.push_back(id);
      }
      const auto init_id = out_.prog.fields.find(mf.init);
      const auto it = std::find(field.alts.begin(), field.alts.end(), init_id);
      if (mf.init.empty() || it == field.alts.end()) {
        fail(mf.loc, "malleable field '" + mf.name + "': init must be one of alts");
      }
      field.init_alt = static_cast<std::size_t>(it - field.alts.begin());
      out_.fields.push_back(std::move(field));
    }
  }

  void lower_state() {
    auto& prog = out_.prog;
    for (const auto& reg : ast_->registers) {
      if (prog.find_register(reg.name) != nullptr) {
        fail(reg.loc, "duplicate register '" + reg.name + "'");
      }
      if (reg.width == 0 || reg.width > p4::kMaxWidth) {
        fail(reg.loc, "register width out of range (1..64)");
      }
      if (reg.instance_count == 0) fail(reg.loc, "register instance_count == 0");
      prog.registers.push_back(p4::RegisterDecl{
          reg.name, static_cast<p4::Width>(reg.width), reg.instance_count});
    }
    for (const auto& ctr : ast_->counters) {
      if (ctr.instance_count == 0) fail(ctr.loc, "counter instance_count == 0");
      prog.counters.push_back(p4::CounterDecl{ctr.name, ctr.instance_count});
    }
  }

  /// Resolves a primitive argument in the context of an action.
  p4::Operand resolve_arg(const AstArg& arg,
                          const std::vector<std::string>& params) {
    if (arg.kind == AstArg::Kind::kConst) {
      return p4::Operand::of_const(arg.value);
    }
    const auto& ref = arg.ref;
    if (ref.malleable) {
      if (!is_mbl(ref.text)) {
        fail(ref.loc, "unknown malleable '${" + ref.text + "}'");
      }
      return p4::Operand::of_mbl(ref.text);
    }
    // Bare identifier that names an action parameter?
    if (ref.text.find('.') == std::string::npos) {
      const auto it = std::find(params.begin(), params.end(), ref.text);
      if (it != params.end()) {
        return p4::Operand::of_param(
            static_cast<std::uint16_t>(it - params.begin()));
      }
    }
    const auto id = out_.prog.fields.find(ref.text);
    if (id == p4::kInvalidField) {
      fail(ref.loc, "unknown field or parameter '" + ref.text + "'");
    }
    return p4::Operand::of_field(id);
  }

  void lower_actions() {
    for (const auto& act : ast_->actions) {
      if (out_.prog.find_action(act.name) != nullptr) {
        fail(act.loc, "duplicate action '" + act.name + "'");
      }
      p4::ActionDecl decl;
      decl.name = act.name;
      for (const auto& p : act.params) {
        decl.params.push_back(p4::ActionParam{p, 32});
      }
      for (const auto& prim : act.body) {
        decl.body.push_back(lower_primitive(prim, act.params));
      }
      out_.prog.actions.push_back(std::move(decl));
    }
  }

  p4::Instruction lower_primitive(const AstPrim& prim,
                                  const std::vector<std::string>& params) {
    p4::Instruction ins;
    auto args_exactly = [&](std::size_t n) {
      if (prim.args.size() != n) {
        fail(prim.loc, prim.name + " expects " + std::to_string(n) + " args, got " +
                           std::to_string(prim.args.size()));
      }
    };
    auto arg = [&](std::size_t i) { return resolve_arg(prim.args[i], params); };
    auto name_arg = [&](std::size_t i) -> std::string {
      if (prim.args[i].kind != AstArg::Kind::kRef || prim.args[i].ref.malleable) {
        fail(prim.loc, prim.name + ": argument " + std::to_string(i) +
                           " must be an object name");
      }
      return prim.args[i].ref.text;
    };

    const std::string& n = prim.name;
    using p4::PrimOp;
    if (n == "modify_field") {
      args_exactly(2);
      ins.op = PrimOp::kModifyField;
      ins.args = {arg(0), arg(1)};
    } else if (n == "add" || n == "subtract" || n == "bit_and" || n == "bit_or" ||
               n == "bit_xor" || n == "shift_left" || n == "shift_right") {
      args_exactly(3);
      ins.op = n == "add"          ? PrimOp::kAdd
               : n == "subtract"   ? PrimOp::kSubtract
               : n == "bit_and"    ? PrimOp::kBitAnd
               : n == "bit_or"     ? PrimOp::kBitOr
               : n == "bit_xor"    ? PrimOp::kBitXor
               : n == "shift_left" ? PrimOp::kShiftLeft
                                   : PrimOp::kShiftRight;
      ins.args = {arg(0), arg(1), arg(2)};
    } else if (n == "add_to_field" || n == "subtract_from_field") {
      args_exactly(2);
      ins.op = n == "add_to_field" ? PrimOp::kAddToField : PrimOp::kSubtractFromField;
      ins.args = {arg(0), arg(1)};
    } else if (n == "register_read") {
      // register_read(dst, reg, index)
      args_exactly(3);
      ins.op = PrimOp::kRegisterRead;
      ins.object = name_arg(1);
      ins.args = {arg(0), arg(2)};
    } else if (n == "register_write") {
      // register_write(reg, index, value)
      args_exactly(3);
      ins.op = PrimOp::kRegisterWrite;
      ins.object = name_arg(0);
      ins.args = {arg(1), arg(2)};
    } else if (n == "count") {
      args_exactly(2);
      ins.op = PrimOp::kCount;
      ins.object = name_arg(0);
      ins.args = {arg(1)};
    } else if (n == "modify_field_with_hash_based_offset") {
      // (dst, base, calc, size)
      args_exactly(4);
      ins.op = PrimOp::kModifyFieldWithHash;
      ins.object = name_arg(2);
      ins.args = {arg(0), arg(1), arg(3)};
    } else if (n == "drop" || n == "_drop") {
      args_exactly(0);
      ins.op = PrimOp::kDrop;
    } else if (n == "no_op") {
      args_exactly(0);
      ins.op = PrimOp::kNoOp;
    } else {
      fail(prim.loc, "unknown primitive action '" + n + "'");
    }

    // Destination of writing primitives must be a field or malleable.
    if (!ins.args.empty() &&
        (ins.op == PrimOp::kModifyField || ins.op == PrimOp::kAdd ||
         ins.op == PrimOp::kSubtract || ins.op == PrimOp::kAddToField ||
         ins.op == PrimOp::kSubtractFromField || ins.op == PrimOp::kBitAnd ||
         ins.op == PrimOp::kBitOr || ins.op == PrimOp::kBitXor ||
         ins.op == PrimOp::kShiftLeft || ins.op == PrimOp::kShiftRight ||
         ins.op == PrimOp::kRegisterRead || ins.op == PrimOp::kModifyFieldWithHash)) {
      const auto kind = ins.args[0].kind;
      if (kind != p4::OperandKind::kField && kind != p4::OperandKind::kMbl) {
        fail(prim.loc, prim.name + ": destination must be a field");
      }
      // A malleable *value* cannot be written from the data plane.
      if (kind == p4::OperandKind::kMbl &&
          out_.find_value(ins.args[0].mbl) != nullptr) {
        fail(prim.loc, "malleable value '${" + ins.args[0].mbl +
                           "}' cannot be a data-plane write destination");
      }
    }
    return ins;
  }

  void lower_tables() {
    for (const auto& tbl : ast_->tables) {
      if (out_.prog.find_table(tbl.name) != nullptr) {
        fail(tbl.loc, "duplicate table '" + tbl.name + "'");
      }
      p4::TableDecl decl;
      decl.name = tbl.name;
      decl.size = tbl.size;
      for (const auto& read : tbl.reads) {
        p4::MatchSpec spec;
        spec.kind = match_kind_from(read.match_kind, read.loc);
        if (read.ref.malleable) {
          if (out_.find_field(read.ref.text) == nullptr) {
            fail(read.loc, "table match key '${" + read.ref.text +
                               "}' is not a malleable field");
          }
          spec.mbl = read.ref.text;
          spec.premask = read.mask;
        } else {
          const auto id = out_.prog.fields.find(read.ref.text);
          if (id == p4::kInvalidField) {
            fail(read.loc, "unknown match field '" + read.ref.text + "'");
          }
          spec.field = id;
        }
        decl.reads.push_back(std::move(spec));
      }
      for (const auto& act : tbl.actions) {
        if (std::none_of(ast_->actions.begin(), ast_->actions.end(),
                         [&](const AstAction& a) { return a.name == act; }) &&
            act != "_drop" && act != "no_op") {
          fail(tbl.loc, "table '" + tbl.name + "' references unknown action '" +
                            act + "'");
        }
        decl.actions.push_back(act);
      }
      decl.default_action = tbl.default_action;
      decl.default_action_args = tbl.default_args;
      out_.prog.tables.push_back(std::move(decl));
      if (tbl.malleable) out_.malleable_tables.push_back(tbl.name);
    }
    // Materialize the builtin actions tables may reference.
    ensure_builtin_action("_drop", p4::PrimOp::kDrop);
    ensure_builtin_action("no_op", p4::PrimOp::kNoOp);
  }

  void ensure_builtin_action(const std::string& name, p4::PrimOp op) {
    bool referenced = false;
    for (const auto& tbl : out_.prog.tables) {
      if (std::find(tbl.actions.begin(), tbl.actions.end(), name) !=
              tbl.actions.end() ||
          tbl.default_action == name) {
        referenced = true;
        break;
      }
    }
    if (!referenced || out_.prog.find_action(name) != nullptr) return;
    p4::ActionDecl decl;
    decl.name = name;
    if (op != p4::PrimOp::kNoOp) {
      p4::Instruction ins;
      ins.op = op;
      decl.body.push_back(std::move(ins));
    }
    out_.prog.actions.push_back(std::move(decl));
  }

  void lower_field_lists_and_hashes() {
    for (const auto& fl : ast_->field_lists) {
      p4::FieldListDecl decl;
      decl.name = fl.name;
      for (const auto& entry : fl.entries) {
        p4::FieldListEntry e;
        if (entry.malleable) {
          if (out_.find_field(entry.text) == nullptr) {
            fail(entry.loc, "field_list entry '${" + entry.text +
                                "}' is not a malleable field");
          }
          e.mbl = entry.text;
        } else {
          const auto id = out_.prog.fields.find(entry.text);
          if (id == p4::kInvalidField) {
            fail(entry.loc, "unknown field '" + entry.text + "' in field_list");
          }
          e.field = id;
        }
        decl.fields.push_back(std::move(e));
      }
      out_.prog.field_lists.push_back(std::move(decl));
    }
    for (const auto& hc : ast_->hash_calcs) {
      if (out_.prog.find_field_list(hc.field_list) == nullptr) {
        fail(hc.loc, "field_list_calculation '" + hc.name +
                         "' references unknown field_list '" + hc.field_list + "'");
      }
      out_.prog.hash_calcs.push_back(p4::HashCalcDecl{
          hc.name, hc.field_list, hc.algorithm,
          static_cast<p4::Width>(hc.output_width)});
    }
  }

  std::vector<p4::ControlNode> lower_control(const std::vector<AstControlNode>& in) {
    std::vector<p4::ControlNode> out;
    for (const auto& node : in) {
      if (const auto* apply = std::get_if<AstApply>(&node.node)) {
        if (out_.prog.find_table(apply->table) == nullptr) {
          fail(apply->loc, "apply of unknown table '" + apply->table + "'");
        }
        // Built in place: moving a ControlNode temporary makes GCC 12 warn
        // (-Wmaybe-uninitialized) about the IfNode alternative it never holds.
        out.emplace_back().node = p4::ApplyNode{apply->table};
      } else {
        const auto& ifn = std::get<AstIf>(node.node);
        p4::IfNode lowered;
        lowered.cond.lhs = lower_cond_operand(ifn.cond.lhs);
        lowered.cond.rhs = lower_cond_operand(ifn.cond.rhs);
        const std::string& op = ifn.cond.op;
        lowered.cond.op = op == "==" ? p4::RelOp::kEq
                          : op == "!=" ? p4::RelOp::kNe
                          : op == "<"  ? p4::RelOp::kLt
                          : op == "<=" ? p4::RelOp::kLe
                          : op == ">"  ? p4::RelOp::kGt
                                       : p4::RelOp::kGe;
        lowered.then_branch = lower_control(ifn.then_branch);
        lowered.else_branch = lower_control(ifn.else_branch);
        out.push_back(p4::ControlNode{std::move(lowered)});
      }
    }
    return out;
  }

  p4::Operand lower_cond_operand(const AstArg& arg) {
    if (arg.kind == AstArg::Kind::kConst) return p4::Operand::of_const(arg.value);
    if (arg.ref.malleable) {
      fail(arg.loc, "malleables are not supported in control-flow conditions");
    }
    const auto id = out_.prog.fields.find(arg.ref.text);
    if (id == p4::kInvalidField) {
      fail(arg.loc, "unknown field '" + arg.ref.text + "' in condition");
    }
    return p4::Operand::of_field(id);
  }

  void lower_reactions() {
    for (const auto& rx : ast_->reactions) {
      Reaction out;
      out.name = rx.name;
      out.body = rx.body;
      std::unordered_set<std::string> c_names;
      for (const auto& arg : rx.args) {
        ReactionParam p;
        switch (arg.kind) {
          case AstReactionArg::Kind::kIngField:
          case AstReactionArg::Kind::kEgrField: {
            p.kind = ReactionParam::Kind::kField;
            p.gress = arg.kind == AstReactionArg::Kind::kIngField
                          ? p4::Gress::kIngress
                          : p4::Gress::kEgress;
            p.field = out_.prog.fields.find(arg.name);
            if (p.field == p4::kInvalidField) {
              fail(arg.loc, "reaction arg: unknown field '" + arg.name + "'");
            }
            p.c_name = c_name_of_field(arg.name);
            break;
          }
          case AstReactionArg::Kind::kRegister: {
            p.kind = ReactionParam::Kind::kRegister;
            const auto* reg = out_.prog.find_register(arg.name);
            if (reg == nullptr) {
              fail(arg.loc, "reaction arg: unknown register '" + arg.name + "'");
            }
            if (arg.lo > arg.hi || arg.hi >= reg->instance_count) {
              fail(arg.loc, "reaction arg: register range [" +
                                std::to_string(arg.lo) + ":" + std::to_string(arg.hi) +
                                "] out of bounds for '" + arg.name + "'");
            }
            p.reg = arg.name;
            p.lo = arg.lo;
            p.hi = arg.hi;
            p.c_name = arg.name;
            break;
          }
          case AstReactionArg::Kind::kMalleable: {
            p.kind = ReactionParam::Kind::kMalleable;
            if (!is_mbl(arg.name)) {
              fail(arg.loc, "reaction arg: unknown malleable '${" + arg.name + "}'");
            }
            p.mbl = arg.name;
            p.c_name = arg.name;
            break;
          }
        }
        if (!c_names.insert(p.c_name).second) {
          fail(arg.loc, "reaction arg name collision: '" + p.c_name + "'");
        }
        out.params.push_back(std::move(p));
      }
      out_.reactions.push_back(std::move(out));
    }
  }
};

}  // namespace

const MalleableValue* P4RProgram::find_value(std::string_view name) const {
  for (const auto& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const MalleableField* P4RProgram::find_field(std::string_view name) const {
  for (const auto& f : fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool P4RProgram::is_malleable_table(std::string_view name) const {
  return std::find(malleable_tables.begin(), malleable_tables.end(), name) !=
         malleable_tables.end();
}

bool P4RProgram::is_malleable_name(std::string_view name) const {
  return find_value(name) != nullptr || find_field(name) != nullptr;
}

P4RProgram analyze(const AstProgram& ast) { return Analyzer(ast).run(); }

P4RProgram frontend(std::string_view source) { return analyze(parse(source)); }

}  // namespace mantis::p4r
