#include "sim/switch_image.hpp"

#include <string>

namespace mantis::sim {

namespace {

template <typename Decl>
std::uint32_t position(const std::vector<Decl>& decls, const Decl* d) {
  return static_cast<std::uint32_t>(d - decls.data());
}

}  // namespace

std::vector<ObjectRef> resolve_objects(const p4::Program& prog,
                                       const p4::ActionDecl& action) {
  std::vector<ObjectRef> out;
  out.reserve(action.body.size());
  for (const auto& ins : action.body) {
    ObjectRef ref;
    switch (ins.op) {
      case p4::PrimOp::kRegisterRead:
      case p4::PrimOp::kRegisterWrite: {
        const auto* reg = prog.find_register(ins.object);
        if (reg == nullptr) throw UserError("unknown register: " + ins.object);
        ref.id = position(prog.registers, reg);
        break;
      }
      case p4::PrimOp::kCount: {
        const auto* ctr = prog.find_counter(ins.object);
        if (ctr == nullptr) throw UserError("unknown counter: " + ins.object);
        ref.id = position(prog.counters, ctr);
        break;
      }
      case p4::PrimOp::kModifyFieldWithHash: {
        const auto* calc = prog.find_hash_calc(ins.object);
        ensures(calc != nullptr, "execute: unknown hash calc " + ins.object);
        const auto* fl = prog.find_field_list(calc->field_list);
        ensures(fl != nullptr,
                "compute_hash: missing field list " + calc->field_list);
        ref.id = position(prog.hash_calcs, calc);
        ref.field_list = position(prog.field_lists, fl);
        break;
      }
      default:
        break;
    }
    out.push_back(ref);
  }
  return out;
}

namespace {

p4::Program prepare(p4::Program prog) {
  p4::add_standard_metadata(prog);
  if (prog.find_action("_no_op_") == nullptr) {
    p4::ActionDecl no_op;
    no_op.name = "_no_op_";
    prog.actions.push_back(std::move(no_op));
  }
  prog.validate();
  return prog;
}

}  // namespace

SwitchImage::SwitchImage(p4::Program prog) : prog_(prepare(std::move(prog))) {
  for (std::size_t i = 0; i < prog_.tables.size(); ++i) {
    table_ids_.emplace(prog_.tables[i].name, static_cast<TableId>(i));
  }
  compile(prog_.ingress.nodes, ingress_);
  compile(prog_.egress.nodes, egress_);
  objects_.reserve(prog_.actions.size());
  for (const auto& act : prog_.actions) {
    objects_.push_back(resolve_objects(prog_, act));
  }
}

TableId SwitchImage::table_id(std::string_view name) const {
  const auto it = table_ids_.find(name);
  if (it == table_ids_.end()) {
    throw UserError("unknown table: " + std::string(name));
  }
  return it->second;
}

void SwitchImage::compile(const std::vector<p4::ControlNode>& nodes,
                          std::vector<ControlStep>& out) const {
  for (const auto& node : nodes) {
    if (const auto* apply = std::get_if<p4::ApplyNode>(&node.node)) {
      out.push_back(ControlStep{nullptr, table_id(apply->table)});
      continue;
    }
    const auto& ifn = std::get<p4::IfNode>(node.node);
    const std::size_t at = out.size();
    out.push_back(ControlStep{&ifn.cond});
    compile(ifn.then_branch, out);
    out[at].else_at = static_cast<std::uint32_t>(out.size());
    compile(ifn.else_branch, out);
    out[at].end_at = static_cast<std::uint32_t>(out.size());
  }
}

}  // namespace mantis::sim
