#include "p4/ir.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace mantis::p4 {

// ---------------------------------------------------------------------------
// FieldCatalog
// ---------------------------------------------------------------------------

FieldId FieldCatalog::add(std::string_view instance, std::string_view field,
                          Width width) {
  expects(width >= 1 && width <= kMaxWidth,
          "FieldCatalog::add: width out of range for " + std::string(field));
  std::string full = std::string(instance) + "." + std::string(field);
  expects(find(full) == kInvalidField, "FieldCatalog::add: duplicate field " + full);
  Entry e;
  e.instance = std::string(instance);
  e.field = std::string(field);
  e.full_name = std::move(full);
  e.width = width;
  entries_.push_back(std::move(e));
  return static_cast<FieldId>(entries_.size() - 1);
}

FieldId FieldCatalog::find(std::string_view full_name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].full_name == full_name) return static_cast<FieldId>(i);
  }
  return kInvalidField;
}

FieldId FieldCatalog::require(std::string_view full_name) const {
  const FieldId id = find(full_name);
  if (id == kInvalidField) {
    throw UserError("unknown field reference: " + std::string(full_name));
  }
  return id;
}

const FieldCatalog::Entry& FieldCatalog::at(FieldId id) const {
  expects(id < entries_.size(), "FieldCatalog: invalid FieldId");
  return entries_[id];
}

Width FieldCatalog::width(FieldId id) const { return at(id).width; }
const std::string& FieldCatalog::full_name(FieldId id) const { return at(id).full_name; }
const std::string& FieldCatalog::instance(FieldId id) const { return at(id).instance; }
const std::string& FieldCatalog::field(FieldId id) const { return at(id).field; }

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

Width HeaderTypeDecl::total_width() const {
  std::uint32_t total = 0;
  for (const auto& f : fields) total += f.width;
  ensures(total <= 0xffff, "header type too wide");
  return static_cast<Width>(total);
}

std::string_view prim_op_name(PrimOp op) {
  switch (op) {
    case PrimOp::kModifyField: return "modify_field";
    case PrimOp::kAdd: return "add";
    case PrimOp::kSubtract: return "subtract";
    case PrimOp::kAddToField: return "add_to_field";
    case PrimOp::kSubtractFromField: return "subtract_from_field";
    case PrimOp::kBitAnd: return "bit_and";
    case PrimOp::kBitOr: return "bit_or";
    case PrimOp::kBitXor: return "bit_xor";
    case PrimOp::kShiftLeft: return "shift_left";
    case PrimOp::kShiftRight: return "shift_right";
    case PrimOp::kRegisterRead: return "register_read";
    case PrimOp::kRegisterWrite: return "register_write";
    case PrimOp::kCount: return "count";
    case PrimOp::kModifyFieldWithHash: return "modify_field_with_hash_based_offset";
    case PrimOp::kDrop: return "drop";
    case PrimOp::kNoOp: return "no_op";
  }
  return "?";
}

std::string_view match_kind_name(MatchKind kind) {
  switch (kind) {
    case MatchKind::kExact: return "exact";
    case MatchKind::kTernary: return "ternary";
    case MatchKind::kLpm: return "lpm";
    case MatchKind::kValid: return "valid";
  }
  return "?";
}

std::string_view rel_op_name(RelOp op) {
  switch (op) {
    case RelOp::kEq: return "==";
    case RelOp::kNe: return "!=";
    case RelOp::kLt: return "<";
    case RelOp::kLe: return "<=";
    case RelOp::kGt: return ">";
    case RelOp::kGe: return ">=";
  }
  return "?";
}

std::string_view gress_name(Gress g) {
  return g == Gress::kIngress ? "ingress" : "egress";
}

bool TableDecl::is_ternary() const {
  return std::any_of(reads.begin(), reads.end(), [](const MatchSpec& m) {
    return m.kind == MatchKind::kTernary;
  });
}

// ---------------------------------------------------------------------------
// Program lookups
// ---------------------------------------------------------------------------

namespace {
template <typename Vec>
auto* find_by_name(Vec& vec, std::string_view name) {
  for (auto& item : vec) {
    if (item.name == name) return &item;
  }
  using Item = std::remove_reference_t<decltype(vec[0])>;
  return static_cast<Item*>(nullptr);
}
}  // namespace

const ActionDecl* Program::find_action(std::string_view name) const {
  return find_by_name(actions, name);
}
ActionDecl* Program::find_action(std::string_view name) {
  return find_by_name(actions, name);
}
const TableDecl* Program::find_table(std::string_view name) const {
  return find_by_name(tables, name);
}
TableDecl* Program::find_table(std::string_view name) {
  return find_by_name(tables, name);
}
const RegisterDecl* Program::find_register(std::string_view name) const {
  return find_by_name(registers, name);
}
const CounterDecl* Program::find_counter(std::string_view name) const {
  return find_by_name(counters, name);
}
const HeaderTypeDecl* Program::find_header_type(std::string_view name) const {
  return find_by_name(header_types, name);
}
const HeaderInstance* Program::find_instance(std::string_view name) const {
  return find_by_name(instances, name);
}
const FieldListDecl* Program::find_field_list(std::string_view name) const {
  return find_by_name(field_lists, name);
}
const HashCalcDecl* Program::find_hash_calc(std::string_view name) const {
  return find_by_name(hash_calcs, name);
}

std::string Program::add_metadata_instance(
    std::string_view type_name, std::string_view instance_name,
    const std::vector<std::pair<std::string, Width>>& field_specs) {
  expects(find_header_type(type_name) == nullptr,
          "add_metadata_instance: duplicate type " + std::string(type_name));
  expects(find_instance(instance_name) == nullptr,
          "add_metadata_instance: duplicate instance " + std::string(instance_name));
  HeaderTypeDecl type;
  type.name = std::string(type_name);
  for (const auto& [fname, width] : field_specs) {
    type.fields.push_back(FieldDecl{fname, width});
    fields.add(instance_name, fname, width);
  }
  header_types.push_back(std::move(type));

  HeaderInstance inst;
  inst.name = std::string(instance_name);
  inst.type_name = std::string(type_name);
  inst.is_metadata = true;
  instances.push_back(std::move(inst));
  return std::string(instance_name);
}

FieldId Program::append_metadata_field(std::string_view instance_name,
                                       std::string_view field_name, Width width,
                                       std::uint64_t init_value) {
  auto* inst = find_by_name(instances, instance_name);
  expects(inst != nullptr,
          "append_metadata_field: unknown instance " + std::string(instance_name));
  auto* type = find_by_name(header_types, inst->type_name);
  ensures(type != nullptr, "instance with missing type");
  type->fields.push_back(FieldDecl{std::string(field_name), width});
  if (init_value != 0) {
    inst->initializers.emplace_back(std::string(field_name), init_value);
  }
  return fields.add(instance_name, field_name, width);
}

// ---------------------------------------------------------------------------
// Control-flow helpers
// ---------------------------------------------------------------------------

namespace {

void collect_tables(const std::vector<ControlNode>& nodes,
                    std::vector<std::string>& out,
                    std::unordered_set<std::string>& seen) {
  for (const auto& node : nodes) {
    if (const auto* apply = std::get_if<ApplyNode>(&node.node)) {
      if (seen.insert(apply->table).second) out.push_back(apply->table);
    } else {
      const auto& ifn = std::get<IfNode>(node.node);
      collect_tables(ifn.then_branch, out, seen);
      collect_tables(ifn.else_branch, out, seen);
    }
  }
}

}  // namespace

std::vector<std::string> Program::tables_in(const ControlBlock& block) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  collect_tables(block.nodes, out, seen);
  return out;
}

bool Program::applied_in(std::string_view table, const ControlBlock& block) const {
  const auto tables = tables_in(block);
  return std::find(tables.begin(), tables.end(), table) != tables.end();
}

Gress Program::gress_of_table(std::string_view table) const {
  if (applied_in(table, ingress)) return Gress::kIngress;
  if (applied_in(table, egress)) return Gress::kEgress;
  throw PreconditionError("gress_of_table: table not applied anywhere: " +
                          std::string(table));
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

std::size_t expected_arg_count(PrimOp op) {
  switch (op) {
    case PrimOp::kModifyField: return 2;
    case PrimOp::kAdd:
    case PrimOp::kSubtract:
    case PrimOp::kBitAnd:
    case PrimOp::kBitOr:
    case PrimOp::kBitXor:
    case PrimOp::kShiftLeft:
    case PrimOp::kShiftRight:
    case PrimOp::kModifyFieldWithHash: return 3;
    case PrimOp::kAddToField:
    case PrimOp::kSubtractFromField:
    case PrimOp::kRegisterRead:
    case PrimOp::kRegisterWrite: return 2;
    case PrimOp::kCount: return 1;
    case PrimOp::kDrop:
    case PrimOp::kNoOp: return 0;
  }
  return 0;
}

bool op_needs_object(PrimOp op) {
  return op == PrimOp::kRegisterRead || op == PrimOp::kRegisterWrite ||
         op == PrimOp::kCount || op == PrimOp::kModifyFieldWithHash;
}

}  // namespace

void Program::validate() const {
  auto check_operand = [&](const Operand& o, const ActionDecl& act,
                           const std::string& ctx) {
    switch (o.kind) {
      case OperandKind::kField:
        ensures(o.field < fields.size(), "validate: bad FieldId in " + ctx);
        break;
      case OperandKind::kParam:
        ensures(o.param < act.params.size(), "validate: bad param index in " + ctx);
        break;
      case OperandKind::kConst:
        break;
      case OperandKind::kMbl:
        throw InvariantError("validate: unresolved malleable reference ${" +
                             o.mbl + "} in " + ctx +
                             " (program not compiled by the Mantis compiler?)");
    }
  };

  for (const auto& act : actions) {
    for (const auto& ins : act.body) {
      const std::string ctx = "action " + act.name;
      ensures(ins.args.size() == expected_arg_count(ins.op),
              "validate: wrong arg count for " + std::string(prim_op_name(ins.op)) +
                  " in " + ctx);
      if (op_needs_object(ins.op)) {
        ensures(!ins.object.empty(), "validate: missing object in " + ctx);
        if (ins.op == PrimOp::kRegisterRead || ins.op == PrimOp::kRegisterWrite) {
          ensures(find_register(ins.object) != nullptr,
                  "validate: unknown register " + ins.object + " in " + ctx);
        } else if (ins.op == PrimOp::kCount) {
          ensures(find_counter(ins.object) != nullptr,
                  "validate: unknown counter " + ins.object + " in " + ctx);
        } else if (ins.op == PrimOp::kModifyFieldWithHash) {
          ensures(find_hash_calc(ins.object) != nullptr,
                  "validate: unknown hash calc " + ins.object + " in " + ctx);
        }
      }
      for (const auto& arg : ins.args) check_operand(arg, act, ctx);
      // First operand of field-writing primitives must be a field.
      switch (ins.op) {
        case PrimOp::kModifyField:
        case PrimOp::kAdd:
        case PrimOp::kSubtract:
        case PrimOp::kAddToField:
        case PrimOp::kSubtractFromField:
        case PrimOp::kBitAnd:
        case PrimOp::kBitOr:
        case PrimOp::kBitXor:
        case PrimOp::kShiftLeft:
        case PrimOp::kShiftRight:
        case PrimOp::kRegisterRead:
        case PrimOp::kModifyFieldWithHash:
          ensures(ins.args[0].kind == OperandKind::kField,
                  "validate: destination must be a field in " + ctx);
          break;
        default:
          break;
      }
    }
  }

  for (const auto& tbl : tables) {
    for (const auto& read : tbl.reads) {
      ensures(!read.is_malleable(),
              "validate: unresolved malleable match key ${" + read.mbl + "} in " +
                  tbl.name);
      ensures(read.field < fields.size(), "validate: bad match field in " + tbl.name);
    }
    ensures(!tbl.actions.empty(), "validate: table with no actions: " + tbl.name);
    for (const auto& act : tbl.actions) {
      ensures(find_action(act) != nullptr,
              "validate: table " + tbl.name + " references unknown action " + act);
    }
    if (!tbl.default_action.empty()) {
      const auto* act = find_action(tbl.default_action);
      ensures(act != nullptr, "validate: unknown default action in " + tbl.name);
      ensures(act->params.size() == tbl.default_action_args.size(),
              "validate: default action arg mismatch in " + tbl.name);
    }
  }

  for (const auto& fl : field_lists) {
    for (const auto& entry : fl.fields) {
      ensures(!entry.is_malleable(),
              "validate: unresolved malleable ${" + entry.mbl + "} in field_list " +
                  fl.name);
      ensures(entry.field < fields.size(),
              "validate: bad field in field_list " + fl.name);
    }
  }
  for (const auto& hc : hash_calcs) {
    ensures(find_field_list(hc.field_list) != nullptr,
            "validate: hash calc " + hc.name + " references unknown field list");
  }

  // Control blocks reference declared tables.
  for (const ControlBlock* block : {&ingress, &egress}) {
    for (const auto& tbl : tables_in(*block)) {
      ensures(find_table(tbl) != nullptr,
              "validate: control block applies unknown table " + tbl);
    }
  }
}

// ---------------------------------------------------------------------------
// Standard metadata
// ---------------------------------------------------------------------------

void add_standard_metadata(Program& prog) {
  if (prog.find_instance(intrinsics::kInstance) != nullptr) return;
  prog.add_metadata_instance(
      "standard_metadata_t", intrinsics::kInstance,
      {{"ingress_port", 9},
       {"egress_spec", 9},
       {"egress_port", 9},
       {"packet_length", 32},
       {"enq_qdepth", 19},
       {"deq_qdepth", 19},
       {"ingress_global_timestamp", 48},
       {"egress_global_timestamp", 48}});
}

}  // namespace mantis::p4
